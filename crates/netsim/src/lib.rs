//! # netsim — cluster model for the MPI-D reproduction suite
//!
//! Simulates the paper's testbed (8 nodes, Gigabit Ethernet, one disk per
//! node) at the fidelity the paper's experiments need:
//!
//! * [`resource`] — max-min fair **fluid sharing** of capacitated resources
//!   (NIC directions, disks), the steady-state behaviour of concurrent TCP
//!   flows through a non-blocking switch;
//! * [`cluster`] — the topology and resource layout, with the paper's
//!   testbed parameters in [`cluster::ClusterSpec::icpp2011_testbed`];
//! * [`net`] — the discrete-event driver: start flows, get completion
//!   callbacks at the simulated instant the last byte lands;
//! * [`protocol`] — cost models of the three primitives the paper compares
//!   (MPICH2, Hadoop RPC, HTTP-over-Jetty), calibrated in [`calibrate`]
//!   against the paper's own Figure 2/3 measurements;
//! * [`jobspec`] — the volume-and-cost job description executed by the
//!   cluster-scale simulators (`hadoop-sim`, `mapred::sim`);
//! * [`plan`] — barrier-separated phase plans the stacks hand to the
//!   multi-job serving master (`serve` crate).
//!
//! Beyond the paper's flat 8-node switch, [`cluster::RackLayout`] scales the
//! same model to rack-aware topologies with an oversubscribed core for the
//! serving experiments.

#![warn(missing_docs)]

pub mod calibrate;
pub mod cluster;
mod flowtable;
pub mod jobspec;
pub mod net;
pub mod plan;
pub mod protocol;
pub mod resource;

pub use cluster::{Cluster, ClusterSpec, HostId, RackLayout, Route};
pub use jobspec::{JobSpec, SimShuffle};
pub use net::{HasNet, Net};
pub use plan::{JobPhase, JobPlan, PhaseFlows};
pub use protocol::{HadoopRpcModel, JettyHttpModel, MpiModel, NioSocketModel, Transport};
pub use resource::{set_force_full_default, FlowId, FluidEngine, ResourceId, SolverStats};
