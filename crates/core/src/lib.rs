//! # mpid — the MPI-D library (MPI Data Extension)
//!
//! The paper's contribution: a *minimal* key-value extension to MPI
//! (Table II) —
//!
//! ```text
//! void MPI_D_Send(S_KEY_TYPE key, S_VALUE_TYPE value);
//! void MPI_D_Recv(R_KEY_TYPE key, R_VALUE_TYPE value);
//! ```
//!
//! plus `MPI_D_Init` / `MPI_D_Finalize`. In this Rust realization the four
//! calls map to:
//!
//! | paper                | here                                              |
//! |----------------------|---------------------------------------------------|
//! | `MPI_D_Init`         | [`MpidWorld::init`]                               |
//! | `MPI_D_Send(k, v)`   | [`MpidSender::send`]                              |
//! | `MPI_D_Recv(k, v)`   | [`MpidReceiver::recv`]                            |
//! | `MPI_D_Finalize`     | [`MpidWorld::finalize`]                           |
//!
//! The pipeline between `Send` and `Recv` is the paper's Figure 4, one
//! module per box: hash-table buffering with local [`combine`]-ing,
//! hash-mod [`partition`] selection, data [`realign`]-ment into contiguous
//! fixed-size frames, `MPI_Send` transport via `mpi-rt`, wildcard
//! reception and in-memory merging in [`receiver`], and dynamic split
//! assignment from the rank-0 [`master`].
//!
//! ```
//! use mpid::{MpidConfig, MpidWorld, Role, SumCombiner};
//! use mpi_rt::Universe;
//!
//! // WordCount over MPI-D (paper Figure 5), 1 master + 2 mappers + 1 reducer.
//! let cfg = MpidConfig::with_workers(2, 1);
//! let docs = vec!["a b a".to_string(), "b a".to_string()];
//! let counts = Universe::run(cfg.required_ranks(), move |comm| {
//!     let world = MpidWorld::init(comm, cfg.clone()).unwrap();
//!     match world.role() {
//!         Role::Master => {
//!             world.run_master(docs.clone()).unwrap();
//!             None
//!         }
//!         Role::Mapper(_) => {
//!             let mut send = world.sender::<String, u64>().with_combiner(SumCombiner);
//!             while let Some(doc) = world.next_split::<String>().unwrap() {
//!                 for word in doc.split_whitespace() {
//!                     send.send(word.to_string(), 1).unwrap(); // MPI_D_Send
//!                 }
//!             }
//!             send.finish().unwrap();
//!             None
//!         }
//!         Role::Reducer(_) => {
//!             let mut recv = world.receiver::<String, u64>();
//!             let mut out = Vec::new();
//!             while let Some((word, counts)) = recv.recv().unwrap() { // MPI_D_Recv
//!                 out.push((word, counts.iter().sum::<u64>()));
//!             }
//!             Some(out)
//!         }
//!     }
//! });
//! let reduced = counts.into_iter().flatten().next().unwrap();
//! assert_eq!(reduced, vec![("a".into(), 3), ("b".into(), 2)]);
//! ```

#![warn(missing_docs)]

pub mod combine;
pub mod compress;
pub mod config;
pub mod error;
pub mod extmerge;
pub mod kv;
pub mod master;
pub mod partition;
pub mod pool;
pub mod realign;
pub mod receiver;
pub mod sender;
pub mod shuffle;
pub mod stats;

pub use combine::{Combiner, FnCombiner, MaxCombiner, MinCombiner, SumCombiner};
pub use config::{MpidConfig, Role};
pub use error::{MpidError, MpidResult};
pub use kv::{CodecError, Key, Kv, Value};
pub use partition::{ConstPartitioner, HashPartitioner, Partitioner, RangePartitioner};
pub use pool::{BlockPool, PoolStats};
pub use receiver::MpidReceiver;
pub use sender::MpidSender;
pub use shuffle::ShuffleKind;
pub use stats::{MasterStats, ReceiverStats, SenderStats};

use mpi_rt::Comm;

/// An initialized MPI-D environment on one rank (`MPI_D_Init`).
///
/// Determines this rank's [`Role`] from the configured layout (rank 0 is the
/// master, then mappers, then reducers) and hands out the role-appropriate
/// handles.
pub struct MpidWorld<'a> {
    comm: &'a Comm,
    cfg: MpidConfig,
    role: Role,
}

impl<'a> MpidWorld<'a> {
    /// `MPI_D_Init`: validate the configuration against the communicator and
    /// determine this rank's role.
    pub fn init(comm: &'a Comm, mut cfg: MpidConfig) -> MpidResult<Self> {
        cfg.check(comm).map_err(MpidError::Config)?;
        // A `mem_budget` with no shared pool gets a per-rank pool here; jobs
        // that want one job-wide budget install a shared Arc before launch.
        cfg.ensure_pool();
        let role = Role::of(&cfg, comm.rank());
        Ok(MpidWorld { comm, cfg, role })
    }

    /// This rank's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The underlying communicator.
    pub fn comm(&self) -> &Comm {
        self.comm
    }

    /// The configuration.
    pub fn config(&self) -> &MpidConfig {
        &self.cfg
    }

    /// Master only: serve split requests until all mappers are done.
    ///
    /// # Panics
    /// Panics when called from a non-master rank.
    pub fn run_master<S: Kv>(&self, splits: Vec<S>) -> MpidResult<MasterStats> {
        assert_eq!(self.role, Role::Master, "run_master on non-master rank");
        master::run_master(self.comm, &self.cfg, splits)
    }

    /// Mapper only: pull the next input split from the master.
    ///
    /// # Panics
    /// Panics when called from a non-mapper rank.
    pub fn next_split<S: Kv>(&self) -> MpidResult<Option<S>> {
        assert!(
            matches!(self.role, Role::Mapper(_)),
            "next_split on non-mapper rank"
        );
        master::next_split(self.comm)
    }

    /// Mapper only: the `MPI_D_Send` handle.
    ///
    /// # Panics
    /// Panics when called from a non-mapper rank.
    pub fn sender<K: Key, V: Value>(&self) -> MpidSender<'a, K, V> {
        assert!(
            matches!(self.role, Role::Mapper(_)),
            "sender on non-mapper rank"
        );
        MpidSender::new(self.comm, self.cfg.clone())
    }

    /// Reducer only: the `MPI_D_Recv` handle.
    ///
    /// # Panics
    /// Panics when called from a non-reducer rank.
    pub fn receiver<K: Key, V: Value>(&self) -> MpidReceiver<'a, K, V> {
        assert!(
            matches!(self.role, Role::Reducer(_)),
            "receiver on non-reducer rank"
        );
        MpidReceiver::new(self.comm, self.cfg.clone())
    }

    /// Mapper only: report this mapper's pipeline statistics to the master
    /// (pair with [`MpidWorld::collect_stats`] on rank 0).
    ///
    /// # Panics
    /// Panics when called from a non-mapper rank.
    pub fn report_stats(&self, stats: &SenderStats) -> MpidResult<()> {
        assert!(
            matches!(self.role, Role::Mapper(_)),
            "report_stats on non-mapper rank"
        );
        let mut buf = bytes::BytesMut::with_capacity(stats.wire_size());
        stats.encode(&mut buf);
        self.comm.send(0, config::tags::STATS, &buf[..])?;
        Ok(())
    }

    /// Master only: collect and merge every mapper's statistics report.
    /// Call after [`MpidWorld::run_master`]; every mapper must call
    /// [`MpidWorld::report_stats`] exactly once.
    ///
    /// # Panics
    /// Panics when called from a non-master rank.
    pub fn collect_stats(&self) -> MpidResult<SenderStats> {
        assert_eq!(self.role, Role::Master, "collect_stats on non-master rank");
        let mut merged = SenderStats::default();
        for _ in 0..self.cfg.n_mappers {
            let (payload, status) = self.comm.recv::<u8>(None, Some(config::tags::STATS))?;
            let mut slice = &payload[..];
            let stats = SenderStats::decode(&mut slice).map_err(|err| MpidError::Codec {
                source_rank: status.source,
                err,
            })?;
            merged.merge(&stats);
        }
        Ok(merged)
    }

    /// `MPI_D_Finalize`: synchronize all ranks before tearing down.
    ///
    /// Before the closing barrier, each rank audits its own mailbox for
    /// undelivered MPI-D protocol traffic (data frames, split requests,
    /// assignments, stats reports). Anything still pending at finalize was
    /// lost by the layer above — reported to the mpiverify checker as a
    /// shutdown-leak finding, not an error, so a run's `VerifyReport` shows
    /// it without changing results.
    pub fn finalize(self) -> MpidResult<()> {
        for (tag, name) in [
            (config::tags::DATA, "DATA frame"),
            (config::tags::REQ, "split request"),
            (config::tags::ASSIGN, "split assignment"),
            (config::tags::STATS, "stats report"),
            (config::tags::RELAY, "in-node relay frame"),
        ] {
            let pending = self.comm.pending_messages(Some(tag));
            if pending > 0 {
                self.comm.report_shutdown_leak(format!(
                    "MPI_D_Finalize with {pending} undelivered {name} message(s) \
                     (tag {tag}) in the {:?} rank's mailbox",
                    self.role
                ));
            }
        }
        self.comm.barrier()?;
        Ok(())
    }
}
