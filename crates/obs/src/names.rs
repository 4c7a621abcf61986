//! Central registry of every telemetry name the suite emits.
//!
//! Span names, counter names, metric keys, and categories used to be inline
//! string literals scattered across six crates, with nothing stopping an
//! emitter and the consumers — [`crate::analysis`]'s category tables,
//! `cargo xtask trace-diff`'s flattened keys, the committed
//! `PROFILE_BASELINE.json` — from silently drifting apart: a renamed span
//! would just zero a baseline row. Now every name lives here once, emitters
//! import the constants, and `cargo xtask analyze`'s telemetry-registry pass
//! enforces the contract statically:
//!
//! * every string literal at a telemetry call site (`complete(`, `instant(`,
//!   `counter(`, `inc(`, …) anywhere in the workspace must be a name defined
//!   in this file;
//! * every span/counter/metric name referenced by the committed
//!   `PROFILE_BASELINE.json` must be defined here — deleting or renaming
//!   a constant fails `analyze` with a file:line finding instead of
//!   silently orphaning a baseline row.
//!
//! The pass reads this file at the token level (it vendors no parser), so
//! **every string literal in this module is a registered name** — do not add
//! unrelated literals here.
//!
//! Constants are grouped by role: categories (`CAT_*`), span names
//! (`SPAN_*`, `MPI_*`, `FLOW_*`), instant markers (`INST_*`, `FAULT_*`),
//! counter-event streams (`CTR_*`), and metrics-registry keys (`M_*`).
//! The `*_SPANS` / `*_CATS` tables at the bottom are the classification
//! tables [`crate::analysis`] consumes.

// --- Categories ------------------------------------------------------------

/// MPI-D data-path stage spans on the real runtime (buffer/combine/ship/…).
pub const CAT_MPID_STAGE: &str = "mpid.stage";
/// MPI-D simulated job phases (read/map/ship/reduce_tail).
pub const CAT_MPID_PHASE: &str = "mpid.phase";
/// MPI-D job-level markers (first arrival, job finished).
pub const CAT_MPID: &str = "mpid";
/// MPI-D checkpoint/restart markers.
pub const CAT_MPID_CHECKPOINT: &str = "mpid.checkpoint";
/// MPI-D data-path memory-accounting counter samples.
pub const CAT_MPID_MEM: &str = "mpid.mem";
/// Hadoop simulated task phases (map/copy/sort/reduce).
pub const CAT_HADOOP_PHASE: &str = "hadoop.phase";
/// Hadoop job-level spans and markers (setup, job finished).
pub const CAT_HADOOP_JOB: &str = "hadoop.job";
/// Hadoop JobTracker scheduling decisions (speculation, attempt failures).
pub const CAT_HADOOP_SCHED: &str = "hadoop.sched";
/// Hadoop job-level counter samples.
pub const CAT_HADOOP: &str = "hadoop";
/// MPI point-to-point operation spans.
pub const CAT_MPI_P2P: &str = "mpi.p2p";
/// MPI collective operation spans (the barrier).
pub const CAT_MPI_COLL: &str = "mpi.coll";
/// Runtime-verification findings (deadlocks, signature mismatches, leaks).
pub const CAT_MPI_VERIFY: &str = "mpi.verify";
/// Category prefix shared by all MPI lanes; [`crate::analysis`] treats every
/// `mpi.*` span as work.
pub const CAT_MPI_PREFIX: &str = "mpi.";
/// Network-simulator job-level events (reallocation markers, flow counts).
pub const CAT_NET: &str = "net";
/// Per-flow resource-occupancy spans (the attribution timelines).
pub const CAT_NET_FLOW: &str = "net.flow";
/// Per-host link/disk utilization samples.
pub const CAT_NET_UTIL: &str = "net.util";
/// Fault-injection markers (from the `faults` plan or simulator recovery).
pub const CAT_FAULTS_INJECT: &str = "faults.inject";
/// Serving-master stream-level markers (arrivals, admissions, recoveries).
pub const CAT_SERVE: &str = "serve";
/// Per-job spans on the serving master (queue wait, execution).
pub const CAT_SERVE_JOB: &str = "serve.job";
/// Shuffle-strategy spans and counters (in-node combine).
pub const CAT_MPID_SHUFFLE: &str = "mpid.shuffle";

// --- Span names ------------------------------------------------------------

/// Map compute (both stacks). The overlap ratio's "map" side.
pub const SPAN_MAP: &str = "map";
/// MPI-D spill shipment (sender → reducers). The overlap ratio's shuffle
/// side for MPI-D.
pub const SPAN_SHIP: &str = "ship";
/// Hadoop shuffle fetch on a reduce-task lane. The overlap ratio's shuffle
/// side for Hadoop.
pub const SPAN_COPY: &str = "copy";
/// Hadoop reduce-side merge sort.
pub const SPAN_SORT: &str = "sort";
/// Reduce compute (Hadoop phase).
pub const SPAN_REDUCE: &str = "reduce";
/// Input split read.
pub const SPAN_READ: &str = "read";
/// MPI-D reducer drain after the last mapper finishes.
pub const SPAN_REDUCE_TAIL: &str = "reduce_tail";
/// Sender buffering interval between spills.
pub const SPAN_BUFFER: &str = "buffer";
/// Value folding inside a buffer interval.
pub const SPAN_COMBINE: &str = "combine";
/// Partition realignment ahead of shipment.
pub const SPAN_REALIGN: &str = "realign";
/// Receiver-side ingest: frame reception and the merge of the frames' key
/// indexes, up to the merged index being ready.
pub const SPAN_MERGE: &str = "merge";
/// Receiver-side delivery: from the merged index being ready to the end of
/// the stream, groups decoded one per `MPI_D_Recv` (the caller's work
/// between calls included).
pub const SPAN_DRAIN: &str = "drain";
/// Sender flush/close (drains pending sends, ships end-of-stream).
pub const SPAN_SENDER_FINISH: &str = "sender_finish";
/// In-node leader's per-host merge of co-located mappers' spill runs.
pub const SPAN_INNODE_COMBINE: &str = "innode_combine";
/// Hadoop job setup (JobTracker scheduling latency before first task).
pub const SPAN_JOB_SETUP: &str = "job_setup";
/// A job's time in the serving master's admission queue.
pub const SPAN_SERVE_QUEUED: &str = "queued";
/// A job's execution on its granted hosts (setup through last phase).
pub const SPAN_SERVE_RUN: &str = "run";

// --- MPI operation span names (`mpi.p2p` / `mpi.coll`) ---------------------

/// Blocking standard send.
pub const MPI_SEND: &str = "send";
/// Blocking receive.
pub const MPI_RECV: &str = "recv";
/// Nonblocking send.
pub const MPI_ISEND: &str = "isend";
/// Barrier collective.
pub const MPI_BARRIER: &str = "barrier";

// --- `net.flow` resource-occupancy span names ------------------------------

/// Inter-host transfer (uplink + downlink occupancy).
pub const FLOW_XFER: &str = "xfer";
/// Same-host transfer (loopback resource).
pub const FLOW_LOOPBACK: &str = "loopback";
/// Local disk read.
pub const FLOW_DISK_READ: &str = "disk_read";
/// Local disk write.
pub const FLOW_DISK_WRITE: &str = "disk_write";
/// Remote read (peer disk + network).
pub const FLOW_REMOTE_READ: &str = "remote_read";

// --- Instant markers -------------------------------------------------------

/// Job completion marker (both stacks).
pub const INST_JOB_FINISHED: &str = "job_finished";
/// Checkpointed MPI-D job failure marker.
pub const INST_JOB_FAILED: &str = "job_failed";
/// First intermediate data arrival at a reducer.
pub const INST_FIRST_ARRIVAL: &str = "first_arrival";
/// Barrier checkpoint committed.
pub const INST_CHECKPOINT: &str = "checkpoint";
/// Restart from the last committed checkpoint.
pub const INST_RESTART: &str = "restart";
/// Fluid-solver rate reallocation.
pub const INST_REALLOC: &str = "realloc";
/// Flow torn down by the caller before completion.
pub const INST_FLOW_CANCELLED: &str = "flow_cancelled";
/// Flow torn down because an endpoint host died.
pub const INST_FLOW_KILLED: &str = "flow_killed";
/// Speculative duplicate task launched for a straggler.
pub const INST_SPECULATIVE_LAUNCH: &str = "speculative_launch";
/// Speculative duplicate lost the race; its work is discarded.
pub const INST_SPECULATIVE_WASTED: &str = "speculative_wasted";
/// Map attempt lost to injected task failure; rescheduled.
pub const INST_MAP_ATTEMPT_FAILED: &str = "map_attempt_failed";
/// Hadoop worker process crash (fault-injection recovery path).
pub const INST_WORKER_CRASH: &str = "worker_crash";
/// A job entered the serving master's admission queue.
pub const INST_SERVE_ARRIVAL: &str = "job_arrived";
/// The scheduler granted a queued job its hosts.
pub const INST_SERVE_ADMIT: &str = "job_admitted";
/// A running job lost a host and restarted its current phase (Hadoop-style
/// task re-execution on the survivors).
pub const INST_SERVE_PHASE_RESTART: &str = "phase_restart";
/// A running job died with a host and was re-queued from scratch
/// (MPI-style whole-job restart).
pub const INST_SERVE_JOB_RESTART: &str = "serve_job_restart";

// --- Fault-plan event labels (`faults.inject` instants) --------------------

/// Whole-node crash.
pub const FAULT_NODE_CRASH: &str = "node_crash";
/// Disk throughput degradation.
pub const FAULT_DISK_SLOWDOWN: &str = "disk_slowdown";
/// NIC throughput degradation.
pub const FAULT_NIC_DEGRADE: &str = "nic_degrade";
/// Host-pair partition begins.
pub const FAULT_LINK_PARTITION: &str = "link_partition";
/// Host-pair partition heals.
pub const FAULT_LINK_HEAL: &str = "link_heal";
/// CPU straggler (slowed compute).
pub const FAULT_STRAGGLER_CPU: &str = "straggler_cpu";

// --- Counter-event streams -------------------------------------------------

/// Prefix of the memory-accounting streams summarized under `memory` in a
/// run profile.
pub const MEM_COUNTER_PREFIX: &str = "mpid.mem.";
/// Sender arena bytes at spill time.
pub const CTR_MEM_TABLE_BYTES: &str = "mpid.mem.table_bytes";
/// Sender arena entries at spill time.
pub const CTR_MEM_TABLE_ENTRIES: &str = "mpid.mem.table_entries";
/// Cumulative sender spills.
pub const CTR_MEM_SPILLS: &str = "mpid.mem.spills";
/// Cumulative wire-pool buffer reuses.
pub const CTR_MEM_WIRE_POOL_HITS: &str = "mpid.mem.wire_pool_hits";
/// Cumulative wire-pool buffer allocations.
pub const CTR_MEM_WIRE_POOL_MISSES: &str = "mpid.mem.wire_pool_misses";
/// Receiver frame-buffer high water, bytes.
pub const CTR_MEM_FRAME_BYTES: &str = "mpid.mem.frame_bytes";
/// Frames decoded by a receiver.
pub const CTR_MEM_FRAMES_DECODED: &str = "mpid.mem.frames_decoded";
/// Bytes spilled by the receiver's external merge.
pub const CTR_MEM_SPILL_BYTES: &str = "mpid.mem.spill_bytes";
/// Block-pool bytes currently charged, sampled at spill/merge points.
pub const CTR_MEM_POOL_LIVE: &str = "mpid.mem.pool.live";
/// Block-pool lifetime high water, bytes. The bounded-memory CI gate
/// asserts this stays within the configured budget.
pub const CTR_MEM_POOL_HIGH_WATER: &str = "mpid.mem.pool.high_water";
/// Block-pool configured byte budget.
pub const CTR_MEM_POOL_BUDGET: &str = "mpid.mem.pool.budget";
/// Charges forced past the budget (irreducible buffers).
pub const CTR_MEM_POOL_FORCED: &str = "mpid.mem.pool.forced";
/// Prefix of the per-host utilization streams summarized under
/// `utilization` in a run profile.
pub const UTIL_COUNTER_PREFIX: &str = "net.util.";
/// Uplink utilization fraction.
pub const CTR_UTIL_UP: &str = "net.util.up";
/// Downlink utilization fraction.
pub const CTR_UTIL_DOWN: &str = "net.util.down";
/// Disk utilization fraction.
pub const CTR_UTIL_DISK: &str = "net.util.disk";
/// Live flows in the fluid solver.
pub const CTR_NET_ACTIVE_FLOWS: &str = "net.active_flows";
/// Jobs waiting in the serving master's admission queue.
pub const CTR_SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Jobs concurrently running on the serving master's cluster.
pub const CTR_SERVE_RUNNING: &str = "serve.running_jobs";
/// Prefix of the shuffle-strategy counter streams.
pub const SHUFFLE_COUNTER_PREFIX: &str = "mpid.shuffle.";
/// Which shuffle strategy ran (0 = baseline, 1 = in-node).
pub const CTR_SHUFFLE_STRATEGY: &str = "mpid.shuffle.strategy";
/// Wire bytes the strategy kept off the reducer-bound wire.
pub const CTR_SHUFFLE_WIRE_SAVED: &str = "mpid.shuffle.wire_bytes_saved";
/// Groups surviving a leader's per-host merge / groups entering it.
pub const CTR_SHUFFLE_COMBINE_RATIO: &str = "mpid.shuffle.combine_ratio_per_host";

// --- Metrics-registry keys -------------------------------------------------

/// Hadoop maps completed (counter event stream and metric key).
pub const M_HADOOP_MAPS_DONE: &str = "hadoop.maps_done";
/// Hadoop reduces completed.
pub const M_HADOOP_REDUCES_DONE: &str = "hadoop.reduces_done";
/// Hadoop map task duration histogram, milliseconds.
pub const M_HADOOP_MAP_DURATION_MS: &str = "hadoop.map_duration_ms";
/// Bytes moved by the Hadoop shuffle.
pub const M_HADOOP_SHUFFLE_BYTES: &str = "hadoop.shuffle_bytes";
/// Hadoop workers crashed by fault injection.
pub const M_HADOOP_CRASHED_WORKERS: &str = "hadoop.crashed_workers";
/// Speculative duplicates launched.
pub const M_HADOOP_SPECULATIVE_LAUNCHED: &str = "hadoop.speculative_launched";
/// Map attempts lost to injected task failures.
pub const M_HADOOP_FAILED_MAP_ATTEMPTS: &str = "hadoop.failed_map_attempts";
/// MPI-D mappers completed (counter event stream and metric key).
pub const M_MPID_MAPPERS_DONE: &str = "mpid.mappers_done";
/// Fluid-solver rate reallocations.
pub const M_NET_REALLOCS: &str = "net.reallocs";
/// Solver recomputations (scoped or full).
pub const M_NET_SOLVER_RECOMPUTES: &str = "net.solver.recomputes";
/// Recomputations that swept every resource (forced-full solver mode only).
pub const M_NET_SOLVER_FULL_RECOMPUTES: &str = "net.solver.full_recomputes";
/// Resources visited across all solver sweeps.
pub const M_NET_SOLVER_RESOURCES_SWEPT: &str = "net.solver.resources_swept";
/// Flow rate assignments written by the solver.
pub const M_NET_SOLVER_FLOWS_RERATED: &str = "net.solver.flows_rerated";
/// Flows torn down before completion.
pub const M_NET_FLOWS_CANCELLED: &str = "net.flows_cancelled";
/// Flows run to completion.
pub const M_NET_FLOWS_COMPLETED: &str = "net.flows_completed";
/// Histogram of completed-flow sizes, bytes.
pub const M_NET_FLOW_BYTES: &str = "net.flow_bytes";
/// Hosts killed by fault injection.
pub const M_NET_HOSTS_FAILED: &str = "net.hosts_failed";
/// Jobs completed by the serving master.
pub const M_SERVE_JOBS_DONE: &str = "serve.jobs_done";
/// Host-loss events a job survived by restarting its current phase.
pub const M_SERVE_JOBS_RECOVERED: &str = "serve.jobs_recovered";
/// Whole-job restarts after a fatal host loss.
pub const M_SERVE_JOB_RESTARTS: &str = "serve.job_restarts";

// --- Classification tables consumed by `crate::analysis` -------------------

/// Categories whose complete spans represent *work* (as opposed to resource
/// occupancy like `net.flow`, or markers). `mpi.*` categories are work too,
/// via [`CAT_MPI_PREFIX`].
pub const WORK_CATS: &[&str] = &[
    CAT_MPID_PHASE,
    CAT_HADOOP_PHASE,
    CAT_MPID_STAGE,
    CAT_HADOOP_JOB,
    CAT_SERVE_JOB,
];

/// Shuffle-side span names for the map↔shuffle overlap ratio: `ship` for
/// MPI-D pipelines, `copy` for Hadoop's fetch.
pub const SHUFFLE_SPANS: &[&str] = &[SPAN_SHIP, SPAN_COPY];

/// Span names whose unexplained self time means waiting on a peer rather
/// than local computation.
pub const BLOCKS_ON_PEER_SPANS: &[&str] = &[
    SPAN_SHIP,
    SPAN_COPY,
    SPAN_MERGE,
    SPAN_REDUCE_TAIL,
    SPAN_SENDER_FINISH,
    // An in-node leader's merge waits on its members' relay streams.
    SPAN_INNODE_COMBINE,
];

/// `net.flow` span names that occupy the host's disk.
pub const DISK_FLOW_SPANS: &[&str] = &[FLOW_DISK_READ, FLOW_DISK_WRITE];

/// `net.flow` span names that occupy the host's network path.
pub const NET_FLOW_SPANS: &[&str] = &[FLOW_XFER, FLOW_REMOTE_READ, FLOW_LOOPBACK];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_tables_are_built_from_registered_names() {
        assert!(WORK_CATS.contains(&CAT_MPID_PHASE));
        assert!(WORK_CATS.contains(&CAT_SERVE_JOB));
        assert!(SHUFFLE_SPANS.contains(&SPAN_SHIP) && SHUFFLE_SPANS.contains(&SPAN_COPY));
        assert!(BLOCKS_ON_PEER_SPANS.contains(&SPAN_REDUCE_TAIL));
        for s in DISK_FLOW_SPANS {
            assert!(!NET_FLOW_SPANS.contains(s), "{s} classified as both");
        }
    }

    #[test]
    fn serve_names_extend_their_category() {
        assert!(CAT_SERVE_JOB.starts_with(CAT_SERVE));
        for c in [CTR_SERVE_QUEUE_DEPTH, CTR_SERVE_RUNNING] {
            assert!(c.starts_with(CAT_SERVE), "{c}");
        }
        for m in [
            M_SERVE_JOBS_DONE,
            M_SERVE_JOBS_RECOVERED,
            M_SERVE_JOB_RESTARTS,
        ] {
            assert!(m.starts_with(CAT_SERVE), "{m}");
        }
    }

    #[test]
    fn prefixes_are_dotted_extensions_of_their_categories() {
        assert_eq!(MEM_COUNTER_PREFIX, format!("{CAT_MPID_MEM}."));
        assert_eq!(UTIL_COUNTER_PREFIX, format!("{CAT_NET_UTIL}."));
        assert!(CAT_MPI_P2P.starts_with(CAT_MPI_PREFIX));
        assert!(CAT_MPI_COLL.starts_with(CAT_MPI_PREFIX));
        assert!(CAT_MPI_VERIFY.starts_with(CAT_MPI_PREFIX));
    }

    #[test]
    fn counter_streams_carry_their_prefixes() {
        for c in [
            CTR_MEM_TABLE_BYTES,
            CTR_MEM_TABLE_ENTRIES,
            CTR_MEM_SPILLS,
            CTR_MEM_WIRE_POOL_HITS,
            CTR_MEM_WIRE_POOL_MISSES,
            CTR_MEM_FRAME_BYTES,
            CTR_MEM_FRAMES_DECODED,
            CTR_MEM_SPILL_BYTES,
            CTR_MEM_POOL_LIVE,
            CTR_MEM_POOL_HIGH_WATER,
            CTR_MEM_POOL_BUDGET,
            CTR_MEM_POOL_FORCED,
        ] {
            assert!(c.starts_with(MEM_COUNTER_PREFIX), "{c}");
        }
        for c in [CTR_UTIL_UP, CTR_UTIL_DOWN, CTR_UTIL_DISK] {
            assert!(c.starts_with(UTIL_COUNTER_PREFIX), "{c}");
        }
    }

    #[test]
    fn shuffle_names_extend_their_category() {
        assert_eq!(SHUFFLE_COUNTER_PREFIX, format!("{CAT_MPID_SHUFFLE}."));
        for c in [
            CTR_SHUFFLE_STRATEGY,
            CTR_SHUFFLE_WIRE_SAVED,
            CTR_SHUFFLE_COMBINE_RATIO,
        ] {
            assert!(c.starts_with(SHUFFLE_COUNTER_PREFIX), "{c}");
        }
        assert!(BLOCKS_ON_PEER_SPANS.contains(&SPAN_INNODE_COMBINE));
    }
}
