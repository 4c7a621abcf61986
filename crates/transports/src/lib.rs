//! # transports — real implementations of Hadoop's communication primitives
//!
//! The paper compares MPI point-to-point primitives against the two
//! mechanisms Hadoop 0.20 actually uses: **Hadoop RPC** (control plane and
//! small data) and **HTTP over embedded Jetty** (shuffle copy stage). This
//! crate reimplements both for real, over loopback TCP, faithful to the cost
//! structure the paper measures:
//!
//! * [`framing`] — `DataOutputStream`/`Writable`/`ObjectWritable`-style wire
//!   serialization, including the per-value class-name overhead that makes
//!   Hadoop RPC slow for bulk data;
//! * [`hrpc`] — versioned-protocol RPC with strict ping-pong semantics
//!   (one outstanding call), like `org.apache.hadoop.ipc.RPC`;
//! * [`jetty`] — a minimal HTTP/1.1 keep-alive server/client pair, the
//!   shuffle copy path extracted to its essentials;
//! * [`datanode`] — the HDFS `DataXceiver` block-streaming protocol with
//!   per-packet CRC32 ([`crc`]), Hadoop's datanode-to-datanode data path
//!   (the "Socket over Java NIO" primitive of the paper's future work).
//!
//! `examples/latency_compare.rs` races these against the `mpi-rt` runtime
//! to reproduce the *shape* of Figures 2–3 with real bytes on real sockets
//! (see EXPERIMENTS.md for how laptop-loopback numbers relate to the
//! paper's GbE numbers).

#![warn(missing_docs)]

pub mod crc;
pub mod datanode;
pub mod framing;
pub mod hrpc;
pub mod jetty;

pub use crc::{crc32, Crc32};
pub use datanode::{read_block, BlockError, BlockStore, DataNode};
pub use framing::{DataReader, DataWriter, ObjectWritable, WireError};
pub use hrpc::{EchoProtocol, Protocol, RpcClient, RpcError, RpcServer};
pub use jetty::{ContentStore, HttpClient, HttpError, HttpServer};
