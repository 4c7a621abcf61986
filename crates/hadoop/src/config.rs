//! Hadoop 0.20.2 configuration knobs that matter to the paper's experiments.

use desim::SimTime;
use netsim::ClusterSpec;

/// Simulated Hadoop deployment parameters.
///
/// Defaults follow the paper's setup (Section II: Hadoop 0.20.2, 8 nodes =
/// 1 master + 7 slaves, 64 MB blocks) and the 0.20.2 shipping defaults for
/// everything the paper doesn't override.
#[derive(Debug, Clone)]
pub struct HadoopConfig {
    /// Cluster hardware and rack layout (host 0 runs the
    /// JobTracker/NameNode; the rest are worker nodes running
    /// TaskTrackers/DataNodes).
    pub cluster: ClusterSpec,
    /// HDFS block size ("the block size adopts the default value of 64 MB").
    pub block_bytes: u64,
    /// Concurrent map slots per tasktracker (Table I varies 4–16).
    pub map_slots: usize,
    /// Concurrent reduce slots per tasktracker (Table I varies 2–16).
    pub reduce_slots: usize,
    /// TaskTracker heartbeat interval (0.20.2: 3 s for small clusters); a
    /// freed slot is refilled only at the next heartbeat — one map and one
    /// reduce assignment per heartbeat, as in 0.20's JobQueueTaskScheduler.
    pub heartbeat: SimTime,
    /// Per-task JVM launch cost (0.20.2 launched a fresh JVM per task unless
    /// reuse was configured; the paper doesn't configure reuse).
    pub jvm_start: SimTime,
    /// Job-level setup before any task can run (job client → JobTracker
    /// submission, split computation, setup task).
    pub job_setup: SimTime,
    /// Job cleanup after the last reduce.
    pub job_cleanup: SimTime,
    /// `io.sort.mb`: map-side sort buffer; map outputs larger than this
    /// spill multiple times and pay an extra on-disk merge pass.
    pub io_sort_bytes: u64,
    /// `mapred.reduce.parallel.copies`: concurrent shuffle fetch threads
    /// per reducer (0.20.2 default 5).
    pub parallel_copies: usize,
    /// Fraction of maps that must finish before reducers launch
    /// (`mapred.reduce.slowstart.completed.maps`, default 0.05).
    pub slowstart: f64,
    /// Reducer in-memory merge buffer; shuffled data beyond it merges on
    /// disk.
    pub merge_buffer_bytes: u64,
    /// Per-fetch overhead on the serving side: one (short-stroke, readahead-
    /// assisted) disk seek into the map output spill file plus the Jetty
    /// servlet request handling. This is the dominant cost of the copy stage
    /// for many-reducer jobs (each reducer fetches a tiny partition from
    /// every map output).
    pub fetch_seek: SimTime,
    /// Extra copy-path latency per fetch round (HTTP request/response over
    /// the reused connection).
    pub http_setup: SimTime,
    /// Number of reduce tasks for the job.
    pub n_reduces: usize,
    /// HDFS replication factor (default 3).
    pub replication: usize,
    /// Launch speculative duplicate attempts for straggling maps
    /// (`mapred.map.tasks.speculative.execution`, default true in 0.20).
    pub speculative: bool,
    /// Probability that a map attempt straggles (GC storm, slow disk, …).
    pub straggler_prob: f64,
    /// Duration multiplier of a straggling attempt.
    pub straggler_factor: f64,
    /// Probability that a map attempt fails outright (task JVM crash, disk
    /// error) and must be rescheduled.
    pub task_failure_prob: f64,
    /// Attempts per map task before the whole job is failed
    /// (`mapred.map.max.attempts`, default 4).
    pub max_task_attempts: usize,
}

impl HadoopConfig {
    /// The paper's testbed with the given slot configuration and reduce
    /// count.
    pub fn icpp2011(map_slots: usize, reduce_slots: usize, n_reduces: usize) -> Self {
        HadoopConfig {
            cluster: ClusterSpec::icpp2011_testbed(),
            block_bytes: 64 << 20,
            map_slots,
            reduce_slots,
            heartbeat: SimTime::from_secs(3),
            jvm_start: SimTime::from_millis(1100),
            job_setup: SimTime::from_secs(6),
            job_cleanup: SimTime::from_secs(2),
            io_sort_bytes: 100 << 20,
            parallel_copies: 5,
            slowstart: 0.05,
            merge_buffer_bytes: 100 << 20,
            fetch_seek: SimTime::from_millis(5),
            http_setup: SimTime::from_micros(1500),
            n_reduces,
            replication: 3,
            speculative: true,
            straggler_prob: 0.02,
            straggler_factor: 4.0,
            task_failure_prob: 0.0,
            max_task_attempts: 4,
        }
    }

    /// Worker hosts (all hosts except host 0, the master).
    pub fn n_workers(&self) -> usize {
        self.cluster.hosts - 1
    }

    /// Total map slots across the cluster.
    pub fn total_map_slots(&self) -> usize {
        self.n_workers() * self.map_slots
    }

    /// Total reduce slots across the cluster.
    pub fn total_reduce_slots(&self) -> usize {
        self.n_workers() * self.reduce_slots
    }

    /// Sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.cluster.hosts < 2 {
            return Err("need a master and at least one worker".into());
        }
        if self.map_slots == 0 || self.reduce_slots == 0 {
            return Err("slot counts must be nonzero".into());
        }
        if self.block_bytes == 0 {
            return Err("block size must be nonzero".into());
        }
        if self.n_reduces == 0 {
            return Err("need at least one reduce task".into());
        }
        if !(0.0..=1.0).contains(&self.slowstart) {
            return Err("slowstart must be in [0,1]".into());
        }
        if self.replication == 0 {
            return Err("replication must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.straggler_prob) || self.straggler_factor < 1.0 {
            return Err("straggler parameters out of range".into());
        }
        if !(0.0..=1.0).contains(&self.task_failure_prob) || self.max_task_attempts == 0 {
            return Err("task failure parameters out of range".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = HadoopConfig::icpp2011(8, 8, 2345);
        assert_eq!(c.n_workers(), 7);
        assert_eq!(c.total_map_slots(), 56);
        assert_eq!(c.total_reduce_slots(), 56);
        assert_eq!(c.block_bytes, 64 << 20);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = HadoopConfig::icpp2011(4, 2, 10);
        c.map_slots = 0;
        assert!(c.validate().is_err());
        let mut c = HadoopConfig::icpp2011(4, 2, 10);
        c.slowstart = 1.5;
        assert!(c.validate().is_err());
        let mut c = HadoopConfig::icpp2011(4, 2, 10);
        c.n_reduces = 0;
        assert!(c.validate().is_err());
    }
}
