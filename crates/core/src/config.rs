//! MPI-D runtime configuration and rank-role layout.

use crate::pool::BlockPool;
use crate::shuffle::ShuffleKind;
use mpi_rt::{Comm, Rank};
use std::sync::Arc;

/// Tunables of the MPI-D pipeline (paper §IV.A).
#[derive(Debug, Clone)]
pub struct MpidConfig {
    /// Number of mapper ranks.
    pub n_mappers: usize,
    /// Number of reducer ranks.
    pub n_reducers: usize,
    /// Spill the mapper-side hash-table buffer once it holds this many
    /// encoded bytes ("when the hash table buffer exceeds a particular
    /// size, a thread will be created to spill out the data").
    pub spill_threshold_bytes: usize,
    /// Target size of each realigned partition frame — the "continuous
    /// arrays with fixed size" data is packed into before `MPI_Send`.
    pub frame_bytes: usize,
    /// Inert: nothing reads it. Every spilled frame already leaves the
    /// sender in ascending key order, whatever this says (see
    /// [`crate::sender`]'s "Key order"). Kept only because callers outside
    /// the workspace build this struct with a full literal (ROADMAP item 12).
    pub sort_keys: bool,
    /// Inert: nothing reads it. Sorting each key's value list on the
    /// reducer is [`MpidReceiver::with_sorted_values`](crate::MpidReceiver::with_sorted_values).
    /// Kept only because callers outside the workspace build this struct
    /// with a full literal (ROADMAP item 9).
    pub sort_values: bool,
    /// Inert: nothing reads it. Every frame ships with a blocking send;
    /// the table thread (`threads >= 2`) is what overlaps mapping with
    /// shipping. Kept only because callers outside the workspace build this
    /// struct with a full literal (ROADMAP item 12).
    pub use_isend: bool,
    /// LZ-compress realigned frames before sending (the paper's
    /// "compressing data" realignment improvement; see [`crate::compress`]).
    pub compress: bool,
    /// Threads a mapper rank's sender runs on. At 1 it folds each pair
    /// into its table on the rank's own thread. At 2 or more the rank's
    /// thread appends the pairs to blocks, and one table thread hashes,
    /// probes and folds each full block and realigns each spill while the
    /// map function goes on (see [`crate::sender`]'s "Two stages" and
    /// "Spill a late"). Values above 2 run the same one table thread. It
    /// pays on a rank with a core to spare for the table thread. Frames,
    /// sender counters and grouped output are the same at every setting;
    /// the receiver does not read it.
    pub threads: usize,
    /// Byte budget for the job's shared [`BlockPool`]. `Some(n)` routes
    /// sender, receiver, and external-merge buffering through one pool of
    /// `n` bytes: the receiver spills pre-sorted windows through
    /// [`crate::extmerge`] instead of exceeding it. `None` = unbounded
    /// (buffering is still bounded per-stage by `spill_threshold_bytes`).
    pub mem_budget: Option<usize>,
    /// The shared pool itself. Normally left `None` and materialized from
    /// `mem_budget` at [`crate::MpidWorld::init`]; set it explicitly (to one
    /// shared `Arc`) before launching ranks when the budget should bound the
    /// *job's* aggregate buffering rather than each rank's. The engine does
    /// exactly that.
    pub pool: Option<Arc<BlockPool>>,
    /// How spilled wire frames travel to the reducers (see
    /// [`crate::shuffle`]): direct ship (baseline) or per-host in-node
    /// combining.
    pub shuffle: ShuffleKind,
}

impl Default for MpidConfig {
    fn default() -> Self {
        MpidConfig {
            n_mappers: 1,
            n_reducers: 1,
            spill_threshold_bytes: 4 * 1024 * 1024,
            frame_bytes: 512 * 1024,
            sort_keys: false,
            sort_values: false,
            use_isend: false,
            compress: false,
            threads: 1,
            mem_budget: None,
            pool: None,
            shuffle: ShuffleKind::Baseline,
        }
    }
}

impl MpidConfig {
    /// Convenience: `m` mappers and `r` reducers, defaults elsewhere.
    pub fn with_workers(m: usize, r: usize) -> Self {
        MpidConfig {
            n_mappers: m,
            n_reducers: r,
            ..Default::default()
        }
    }

    /// Total ranks this configuration requires (master + mappers + reducers).
    pub fn required_ranks(&self) -> usize {
        1 + self.n_mappers + self.n_reducers
    }

    /// Materialize `pool` from `mem_budget` if no shared pool was installed.
    /// Called by [`crate::MpidWorld::init`]; note that init runs once per
    /// rank, so a pool created here is per-rank — share one `Arc` up front
    /// (as the mapred engine does) for a job-wide budget.
    pub fn ensure_pool(&mut self) {
        if self.pool.is_none() {
            if let Some(budget) = self.mem_budget {
                self.pool = Some(BlockPool::new(budget));
            }
        }
    }

    /// Validate against a communicator.
    pub fn check(&self, comm: &Comm) -> Result<(), String> {
        if self.n_mappers == 0 {
            return Err("need at least one mapper".into());
        }
        if self.n_reducers == 0 {
            return Err("need at least one reducer".into());
        }
        if self.frame_bytes == 0 || self.spill_threshold_bytes == 0 {
            return Err("frame and spill sizes must be nonzero".into());
        }
        if self.threads == 0 {
            return Err("threads must be at least 1".into());
        }
        if self.mem_budget == Some(0) {
            return Err("mem_budget must be nonzero when set".into());
        }
        self.shuffle.validate()?;
        if comm.size() != self.required_ranks() {
            return Err(format!(
                "communicator has {} ranks but config requires {} (1 master + {} mappers + {} reducers)",
                comm.size(),
                self.required_ranks(),
                self.n_mappers,
                self.n_reducers
            ));
        }
        Ok(())
    }
}

/// What a rank does in the simulation system: "we use rank 0 process ... to
/// simulate the master process, like the jobtracker process in Hadoop.
/// Other processes are used to simulate workers."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Rank 0: split assignment and coordination.
    Master,
    /// Runs the map function; the payload is the mapper index
    /// (`0..n_mappers`).
    Mapper(usize),
    /// Runs the reduce function; the payload is the reducer index
    /// (`0..n_reducers`).
    Reducer(usize),
}

impl Role {
    /// Role of `rank` under `cfg`'s layout: rank 0 is the master, the next
    /// `n_mappers` ranks map, the rest reduce.
    pub fn of(cfg: &MpidConfig, rank: Rank) -> Role {
        if rank == 0 {
            Role::Master
        } else if rank <= cfg.n_mappers {
            Role::Mapper(rank - 1)
        } else {
            Role::Reducer(rank - 1 - cfg.n_mappers)
        }
    }

    /// World rank of a mapper index.
    pub fn mapper_rank(_cfg: &MpidConfig, idx: usize) -> Rank {
        1 + idx
    }

    /// World rank of a reducer index.
    pub fn reducer_rank(cfg: &MpidConfig, idx: usize) -> Rank {
        1 + cfg.n_mappers + idx
    }
}

/// Reserved tags of the MPI-D wire protocol.
pub mod tags {
    use mpi_rt::Tag;
    /// A realigned data frame (mapper → reducer). An *empty* payload on
    /// this tag is the end-of-stream marker (real frames always carry a
    /// group-count header), so reducers receive with `(ANY_SOURCE, DATA)`
    /// and never intercept unrelated traffic.
    pub const DATA: Tag = 1;
    /// Split request (mapper → master).
    pub const REQ: Tag = 3;
    /// Split assignment or done marker (master → mapper).
    pub const ASSIGN: Tag = 4;
    /// Mapper-side statistics report (mapper → master at finish).
    pub const STATS: Tag = 5;
    /// In-node shuffle relay (group member → group leader): a partition
    /// index plus a wire frame. An *empty* payload is the member's
    /// end-of-relay marker, mirroring [`DATA`]'s end-of-stream convention.
    pub const RELAY: Tag = 6;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_rt::Universe;

    #[test]
    fn role_layout_partitions_all_ranks() {
        let cfg = MpidConfig::with_workers(3, 2);
        assert_eq!(cfg.required_ranks(), 6);
        assert_eq!(Role::of(&cfg, 0), Role::Master);
        assert_eq!(Role::of(&cfg, 1), Role::Mapper(0));
        assert_eq!(Role::of(&cfg, 3), Role::Mapper(2));
        assert_eq!(Role::of(&cfg, 4), Role::Reducer(0));
        assert_eq!(Role::of(&cfg, 5), Role::Reducer(1));
        // Inverse mappings agree.
        assert_eq!(Role::mapper_rank(&cfg, 2), 3);
        assert_eq!(Role::reducer_rank(&cfg, 1), 5);
    }

    #[test]
    fn check_validates_rank_count() {
        let cfg = MpidConfig::with_workers(2, 1);
        Universe::run(4, |comm| {
            assert!(cfg.check(comm).is_ok());
        });
        Universe::run(3, |comm| {
            let err = cfg.check(comm).unwrap_err();
            assert!(err.contains("requires 4"));
        });
    }

    #[test]
    fn check_rejects_degenerate_configs() {
        Universe::run(2, |comm| {
            let cfg = MpidConfig {
                n_mappers: 0,
                n_reducers: 1,
                ..Default::default()
            };
            assert!(cfg.check(comm).is_err());
            let cfg = MpidConfig {
                n_mappers: 1,
                n_reducers: 1,
                frame_bytes: 0,
                ..Default::default()
            };
            assert!(cfg.check(comm).is_err());
        });
    }
}
