//! Cluster topology: hosts with NICs and disks behind a non-blocking switch.

use crate::resource::{FluidEngine, ResourceId};
use desim::SimTime;

/// Index of a host in the cluster (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

/// Physical parameters of the simulated cluster.
///
/// Without a [`RackLayout`] the switch is modelled as non-blocking (as a
/// datacenter ToR GbE switch effectively is for 8 hosts), so the only
/// network resources are each host's uplink and downlink.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of hosts.
    pub hosts: usize,
    /// Payload bandwidth of each NIC direction, bytes/sec.
    pub nic_bytes_per_sec: f64,
    /// Intra-host (memory) transfer bandwidth, bytes/sec.
    pub loopback_bytes_per_sec: f64,
    /// Sequential disk read bandwidth, bytes/sec.
    pub disk_read_bytes_per_sec: f64,
    /// Sequential disk write bandwidth, bytes/sec.
    pub disk_write_bytes_per_sec: f64,
    /// Average seek penalty charged before a non-sequential disk access.
    pub disk_seek: SimTime,
    /// Rack topology layered over the hosts (rack uplinks + oversubscribed
    /// core). `None` keeps the single non-blocking switch.
    pub rack: Option<RackLayout>,
}

impl ClusterSpec {
    /// The paper's testbed (Section II): 8 nodes, Gigabit Ethernet, one
    /// 170 GB disk per node, 16 GB RAM.
    ///
    /// * NIC: 117 MB/s effective payload rate — from Figure 2(c), a 64 MB
    ///   MPICH2 message takes 572 ms.
    /// * Disk: 80 MB/s sequential read / 65 MB/s write, 8 ms seek — typical
    ///   of the 7200 rpm SATA drives of 2010-era Xeon E5620 nodes.
    /// * Loopback: 2 GB/s — in-memory copy through localhost.
    pub fn icpp2011_testbed() -> Self {
        ClusterSpec {
            hosts: 8,
            nic_bytes_per_sec: 117.0e6,
            loopback_bytes_per_sec: 2.0e9,
            disk_read_bytes_per_sec: 80.0e6,
            disk_write_bytes_per_sec: 65.0e6,
            disk_seek: SimTime::from_millis(8),
            rack: None,
        }
    }
}

/// Rack-level structure layered over the flat per-host resource set.
///
/// Hosts are grouped into racks of `hosts_per_rack` consecutive ids (the
/// last rack may be partial). Each rack's top-of-rack switch is non-blocking
/// for intra-rack traffic, but cross-rack flows additionally traverse the
/// rack's uplink into the core, the shared core fabric, and the destination
/// rack's downlink. Setting `rack_uplink_bytes_per_sec` below
/// `hosts_per_rack × nic_bytes_per_sec` models an oversubscribed core, the
/// regime a production cluster serves jobs in.
#[derive(Debug, Clone)]
pub struct RackLayout {
    /// Hosts per rack (consecutive host ids share a rack).
    pub hosts_per_rack: usize,
    /// Per-direction bandwidth of each rack's uplink to the core, bytes/sec.
    pub rack_uplink_bytes_per_sec: f64,
    /// Aggregate bandwidth of the shared core fabric, bytes/sec.
    pub core_bytes_per_sec: f64,
}

impl RackLayout {
    /// A layout whose rack uplinks are oversubscribed `ratio:1` against the
    /// hosts' NICs and whose core carries half the sum of all rack uplinks
    /// (so the core itself saturates under all-to-all cross-rack load).
    pub fn oversubscribed(hosts_per_rack: usize, nic_bytes_per_sec: f64, ratio: f64) -> Self {
        assert!(hosts_per_rack > 0, "rack needs at least one host");
        assert!(ratio >= 1.0, "oversubscription ratio must be >= 1");
        let uplink = hosts_per_rack as f64 * nic_bytes_per_sec / ratio;
        RackLayout {
            hosts_per_rack,
            rack_uplink_bytes_per_sec: uplink,
            core_bytes_per_sec: uplink * 2.0,
        }
    }
}

/// How a flow traverses the cluster.
#[derive(Debug, Clone)]
pub enum Route {
    /// NIC-to-NIC transfer between distinct hosts.
    HostToHost {
        /// Sending host.
        src: HostId,
        /// Receiving host.
        dst: HostId,
    },
    /// Intra-host transfer (does not touch the NIC).
    Loopback(HostId),
    /// Sequential read from a host's disk.
    DiskRead(HostId),
    /// Sequential write to a host's disk.
    DiskWrite(HostId),
    /// Remote disk read: disk on `from`, then network to `to`.
    /// (Both resources held for the duration — a streaming read.)
    RemoteRead {
        /// Host whose disk is read.
        from: HostId,
        /// Host receiving the data.
        to: HostId,
    },
}

/// A concrete cluster: spec plus the resource-id layout used by the fluid
/// engine.
///
/// Resource layout per host `h` (4 resources each):
/// `4h` = uplink, `4h+1` = downlink, `4h+2` = disk, `4h+3` = loopback.
/// The disk is a single resource shared by reads and writes (a spindle cannot
/// do both at full speed); its capacity is the read rate, and write flows
/// inflate their byte count by `read_rate / write_rate` so a lone write
/// proceeds at the write rate while mixed read/write still contends on one
/// resource.
///
/// With a [`ClusterSpec::rack`] layout, rack resources follow the host block: for rack `r`
/// of `R` racks over `H` hosts, `4H + 2r` = rack uplink, `4H + 2r + 1` =
/// rack downlink, and `4H + 2R` = the shared core. Only cross-rack routes
/// touch these, so intra-rack traffic keeps its solver components rack-local
/// and the incremental solver's scoped recomputes stay per-rack.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
}

impl Cluster {
    /// Wrap a spec: one non-blocking switch, or racks behind an
    /// oversubscribed core when the spec carries a [`RackLayout`].
    pub fn new(spec: ClusterSpec) -> Self {
        assert!(spec.hosts > 0, "cluster needs at least one host");
        if let Some(l) = &spec.rack {
            assert!(l.hosts_per_rack > 0, "rack needs at least one host");
            assert!(
                l.rack_uplink_bytes_per_sec > 0.0 && l.core_bytes_per_sec > 0.0,
                "rack and core bandwidth must be positive"
            );
        }
        Cluster { spec }
    }

    /// The physical parameters.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of racks (1 for a flat cluster).
    pub fn n_racks(&self) -> usize {
        match &self.spec.rack {
            Some(l) => self.spec.hosts.div_ceil(l.hosts_per_rack),
            None => 1,
        }
    }

    /// Rack index of a host (0 for a flat cluster).
    pub fn rack_of(&self, h: HostId) -> usize {
        self.check(h);
        match &self.spec.rack {
            Some(l) => h.0 / l.hosts_per_rack,
            None => 0,
        }
    }

    /// Uplink resource of rack `r` into the core. Rack-aware clusters only.
    pub fn rack_uplink(&self, r: usize) -> ResourceId {
        assert!(
            self.spec.rack.is_some(),
            "flat cluster has no rack resources"
        );
        assert!(r < self.n_racks(), "rack {r} out of range");
        ResourceId(4 * self.spec.hosts + 2 * r)
    }

    /// Downlink resource of rack `r` from the core. Rack-aware clusters only.
    pub fn rack_downlink(&self, r: usize) -> ResourceId {
        assert!(
            self.spec.rack.is_some(),
            "flat cluster has no rack resources"
        );
        assert!(r < self.n_racks(), "rack {r} out of range");
        ResourceId(4 * self.spec.hosts + 2 * r + 1)
    }

    /// The shared core-fabric resource. Rack-aware clusters only.
    pub fn core(&self) -> ResourceId {
        assert!(
            self.spec.rack.is_some(),
            "flat cluster has no rack resources"
        );
        ResourceId(4 * self.spec.hosts + 2 * self.n_racks())
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.spec.hosts
    }

    /// Iterate over all host ids.
    pub fn host_ids(&self) -> impl Iterator<Item = HostId> {
        (0..self.spec.hosts).map(HostId)
    }

    /// Uplink resource of a host.
    pub fn uplink(&self, h: HostId) -> ResourceId {
        ResourceId(4 * h.0)
    }
    /// Downlink resource of a host.
    pub fn downlink(&self, h: HostId) -> ResourceId {
        ResourceId(4 * h.0 + 1)
    }
    /// Disk resource of a host.
    pub fn disk(&self, h: HostId) -> ResourceId {
        ResourceId(4 * h.0 + 2)
    }
    /// Loopback resource of a host.
    pub fn loopback(&self, h: HostId) -> ResourceId {
        ResourceId(4 * h.0 + 3)
    }

    /// Build the fluid engine with this cluster's resources.
    pub fn build_engine(&self) -> FluidEngine {
        let mut e = FluidEngine::new();
        for _ in 0..self.spec.hosts {
            e.add_resource(self.spec.nic_bytes_per_sec); // uplink
            e.add_resource(self.spec.nic_bytes_per_sec); // downlink
            e.add_resource(self.spec.disk_read_bytes_per_sec); // disk
            e.add_resource(self.spec.loopback_bytes_per_sec); // loopback
        }
        if let Some(l) = &self.spec.rack {
            for _ in 0..self.n_racks() {
                e.add_resource(l.rack_uplink_bytes_per_sec); // rack uplink
                e.add_resource(l.rack_uplink_bytes_per_sec); // rack downlink
            }
            e.add_resource(l.core_bytes_per_sec); // core fabric
        }
        e
    }

    /// Rack hops for a `src → dst` network leg: empty when the hosts share a
    /// rack (the ToR is non-blocking), else source rack uplink → core →
    /// destination rack downlink.
    fn rack_hops(&self, src: HostId, dst: HostId) -> Vec<ResourceId> {
        if self.spec.rack.is_none() {
            return Vec::new();
        }
        let (sr, dr) = (self.rack_of(src), self.rack_of(dst));
        if sr == dr {
            return Vec::new();
        }
        vec![self.rack_uplink(sr), self.core(), self.rack_downlink(dr)]
    }

    /// Resources a route crosses.
    pub fn route_resources(&self, route: &Route) -> Vec<ResourceId> {
        match *route {
            Route::HostToHost { src, dst } => {
                assert!(src != dst, "use Route::Loopback for intra-host flows");
                self.check(src);
                self.check(dst);
                let mut r = vec![self.uplink(src), self.downlink(dst)];
                r.extend(self.rack_hops(src, dst));
                r
            }
            Route::Loopback(h) => {
                self.check(h);
                vec![self.loopback(h)]
            }
            Route::DiskRead(h) => {
                self.check(h);
                vec![self.disk(h)]
            }
            Route::DiskWrite(h) => {
                self.check(h);
                vec![self.disk(h)]
            }
            Route::RemoteRead { from, to } => {
                self.check(from);
                self.check(to);
                if from == to {
                    vec![self.disk(from)]
                } else {
                    let mut r = vec![self.disk(from), self.uplink(from), self.downlink(to)];
                    r.extend(self.rack_hops(from, to));
                    r
                }
            }
        }
    }

    fn check(&self, h: HostId) {
        assert!(h.0 < self.spec.hosts, "host {h:?} out of range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_spec_matches_paper() {
        let s = ClusterSpec::icpp2011_testbed();
        assert_eq!(s.hosts, 8);
        // 64 MB over the NIC ≈ 572 ms (Figure 2c).
        let secs = 64.0 * 1024.0 * 1024.0 / s.nic_bytes_per_sec;
        assert!((secs - 0.572).abs() < 0.01, "got {secs}");
    }

    #[test]
    fn resource_layout_is_disjoint() {
        let c = Cluster::new(ClusterSpec::icpp2011_testbed());
        let mut seen = std::collections::BTreeSet::new();
        for h in c.host_ids() {
            for r in [c.uplink(h), c.downlink(h), c.disk(h), c.loopback(h)] {
                assert!(seen.insert(r), "duplicate resource id {r:?}");
            }
        }
        let engine = c.build_engine();
        assert_eq!(engine.resource_count(), seen.len());
    }

    #[test]
    fn routes_map_to_expected_resources() {
        let c = Cluster::new(ClusterSpec::icpp2011_testbed());
        let r = c.route_resources(&Route::HostToHost {
            src: HostId(1),
            dst: HostId(2),
        });
        assert_eq!(r, vec![c.uplink(HostId(1)), c.downlink(HostId(2))]);
        let r = c.route_resources(&Route::RemoteRead {
            from: HostId(0),
            to: HostId(3),
        });
        assert_eq!(
            r,
            vec![
                c.disk(HostId(0)),
                c.uplink(HostId(0)),
                c.downlink(HostId(3))
            ]
        );
        let r = c.route_resources(&Route::RemoteRead {
            from: HostId(2),
            to: HostId(2),
        });
        assert_eq!(r, vec![c.disk(HostId(2))]);
    }

    #[test]
    #[should_panic(expected = "use Route::Loopback")]
    fn host_to_host_same_host_panics() {
        let c = Cluster::new(ClusterSpec::icpp2011_testbed());
        c.route_resources(&Route::HostToHost {
            src: HostId(1),
            dst: HostId(1),
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_host_panics() {
        let c = Cluster::new(ClusterSpec::icpp2011_testbed());
        c.route_resources(&Route::Loopback(HostId(99)));
    }

    fn racked(hosts: usize, per_rack: usize) -> Cluster {
        let mut spec = ClusterSpec::icpp2011_testbed();
        spec.hosts = hosts;
        spec.rack = Some(RackLayout::oversubscribed(
            per_rack,
            spec.nic_bytes_per_sec,
            4.0,
        ));
        Cluster::new(spec)
    }

    #[test]
    fn rack_resources_follow_host_block() {
        let c = racked(24, 8);
        assert_eq!(c.n_racks(), 3);
        assert_eq!(c.rack_of(HostId(0)), 0);
        assert_eq!(c.rack_of(HostId(7)), 0);
        assert_eq!(c.rack_of(HostId(8)), 1);
        assert_eq!(c.rack_of(HostId(23)), 2);
        let mut seen = std::collections::BTreeSet::new();
        for h in c.host_ids() {
            for r in [c.uplink(h), c.downlink(h), c.disk(h), c.loopback(h)] {
                assert!(seen.insert(r), "duplicate resource id {r:?}");
            }
        }
        for r in 0..c.n_racks() {
            assert!(seen.insert(c.rack_uplink(r)));
            assert!(seen.insert(c.rack_downlink(r)));
        }
        assert!(seen.insert(c.core()));
        assert_eq!(c.build_engine().resource_count(), seen.len());
    }

    #[test]
    fn cross_rack_routes_traverse_uplink_core_downlink() {
        let c = racked(24, 8);
        let r = c.route_resources(&Route::HostToHost {
            src: HostId(1),
            dst: HostId(9),
        });
        assert_eq!(
            r,
            vec![
                c.uplink(HostId(1)),
                c.downlink(HostId(9)),
                c.rack_uplink(0),
                c.core(),
                c.rack_downlink(1),
            ]
        );
        let r = c.route_resources(&Route::RemoteRead {
            from: HostId(16),
            to: HostId(2),
        });
        assert_eq!(
            r,
            vec![
                c.disk(HostId(16)),
                c.uplink(HostId(16)),
                c.downlink(HostId(2)),
                c.rack_uplink(2),
                c.core(),
                c.rack_downlink(0),
            ]
        );
    }

    #[test]
    fn same_rack_routes_skip_core() {
        let c = racked(24, 8);
        let r = c.route_resources(&Route::HostToHost {
            src: HostId(1),
            dst: HostId(2),
        });
        assert_eq!(r, vec![c.uplink(HostId(1)), c.downlink(HostId(2))]);
        // Flat-cluster routes are unchanged by the rack machinery existing.
        let flat = Cluster::new(ClusterSpec::icpp2011_testbed());
        let r = flat.route_resources(&Route::HostToHost {
            src: HostId(1),
            dst: HostId(2),
        });
        assert_eq!(r, vec![flat.uplink(HostId(1)), flat.downlink(HostId(2))]);
    }

    #[test]
    fn oversubscribed_layout_divides_nic_aggregate() {
        let l = RackLayout::oversubscribed(8, 117.0e6, 4.0);
        assert!((l.rack_uplink_bytes_per_sec - 8.0 * 117.0e6 / 4.0).abs() < 1.0);
        assert!((l.core_bytes_per_sec - 2.0 * l.rack_uplink_bytes_per_sec).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "flat cluster has no rack resources")]
    fn flat_cluster_has_no_rack_resources() {
        let c = Cluster::new(ClusterSpec::icpp2011_testbed());
        c.core();
    }
}
