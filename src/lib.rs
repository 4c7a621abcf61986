//! Umbrella crate for the MPI-D reproduction suite.
//!
//! Re-exports every workspace crate so that examples and integration tests can
//! use a single dependency. See `DESIGN.md` for the system inventory.
pub use desim;
pub use hadoop_sim;
pub use mapred;
pub use mpi_rt;
pub use mpid;
pub use netsim;
pub use obs;
pub use workloads;
