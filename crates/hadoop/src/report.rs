//! Per-task and per-phase timing records — the raw material of the paper's
//! Figure 1, Table I and Figure 6.

use desim::stats::OnlineStats;
use desim::SimTime;

/// Lifetime of one map task attempt.
#[derive(Debug, Clone, Copy)]
pub struct MapSpan {
    /// Scheduled on a tasktracker (JVM launch begins).
    pub start: SimTime,
    /// Output committed, slot freed.
    pub end: SimTime,
    /// Whether the input block was host-local.
    pub local: bool,
}

impl MapSpan {
    /// Wall-clock duration.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// Lifetime and phase breakdown of one reduce task (Figure 1's three series).
#[derive(Debug, Clone, Copy)]
pub struct ReduceSpan {
    /// Scheduled on a tasktracker.
    pub start: SimTime,
    /// Output committed.
    pub end: SimTime,
    /// Shuffle copy stage duration.
    pub copy: SimTime,
    /// Sort/merge stage duration.
    pub sort: SimTime,
    /// Reduce-function stage duration (including output write).
    pub reduce: SimTime,
}

impl ReduceSpan {
    /// Wall-clock duration.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// Everything the simulator records about one job execution.
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    /// Job wall-clock time (submission to cleanup completion).
    pub makespan: SimTime,
    /// One record per map task (the winning attempt).
    pub maps: Vec<MapSpan>,
    /// One record per reduce task, indexed by reducer id.
    pub reduces: Vec<ReduceSpan>,
    /// Speculative duplicate map attempts launched.
    pub speculative_launched: u64,
    /// Duplicate attempts that finished after the task was already done
    /// (wasted work).
    pub speculative_wasted: u64,
    /// Map attempts that failed and were rescheduled.
    pub failed_map_attempts: u64,
    /// True if some map task exhausted its attempts and the job was failed.
    pub job_failed: bool,
    /// Map tasks re-executed because a worker crash destroyed their
    /// committed output (distinct from `failed_map_attempts`, which counts
    /// probabilistic attempt failures, and from speculation).
    pub maps_reexecuted: u64,
    /// Workers lost to injected node crashes during the job.
    pub crashed_workers: u64,
    /// Reduce tasks restarted from scratch on a surviving worker after
    /// their host crashed.
    pub restarted_reduces: u64,
    /// Shuffle payload bytes that actually crossed the disk/network during
    /// the copy phase (after any in-node combining; excludes per-fetch
    /// seek/HTTP overhead bytes).
    pub shuffle_wire_bytes: u64,
}

impl JobReport {
    /// Table I's metric: total copy-stage time across all reducers, divided
    /// by the total execution time of all mappers and reducers.
    pub fn copy_fraction(&self) -> f64 {
        let copy: f64 = self.reduces.iter().map(|r| r.copy.as_secs_f64()).sum();
        let total: f64 = self
            .maps
            .iter()
            .map(|m| m.duration().as_secs_f64())
            .chain(self.reduces.iter().map(|r| r.duration().as_secs_f64()))
            .sum();
        if total == 0.0 {
            0.0
        } else {
            copy / total
        }
    }

    /// Copy-stage share of the reducers' own lifecycles (the paper's "95 %"
    /// observation under Figure 1).
    pub fn copy_share_of_reducers(&self) -> f64 {
        let copy: f64 = self.reduces.iter().map(|r| r.copy.as_secs_f64()).sum();
        let total: f64 = self
            .reduces
            .iter()
            .map(|r| r.duration().as_secs_f64())
            .sum();
        if total == 0.0 {
            0.0
        } else {
            copy / total
        }
    }

    /// Summary statistics of one reduce phase selected by `f`.
    pub fn reduce_phase_stats(&self, f: impl Fn(&ReduceSpan) -> SimTime) -> OnlineStats {
        let mut s = OnlineStats::new();
        for r in &self.reduces {
            s.add(f(r).as_secs_f64());
        }
        s
    }

    /// Drop the `n` largest copy-time reducers — the paper's Figure 1 "we
    /// delete 56 (7 * 8) values of reducers as their time reaches 4000 s"
    /// (the first reducer wave, whose copy stage waits for the entire map
    /// phase).
    pub fn without_top_copy_outliers(&self, n: usize) -> JobReport {
        let mut rs = self.reduces.clone();
        rs.sort_by_key(|r| std::cmp::Reverse(r.copy));
        let kept = rs.split_off(n.min(rs.len()));
        JobReport {
            reduces: kept,
            ..self.clone()
        }
    }

    /// Fraction of map tasks that read their block locally.
    pub fn map_locality(&self) -> f64 {
        if self.maps.is_empty() {
            return 0.0;
        }
        self.maps.iter().filter(|m| m.local).count() as f64 / self.maps.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(copy: u64, sort: u64, reduce: u64) -> ReduceSpan {
        ReduceSpan {
            start: SimTime::ZERO,
            end: SimTime::from_secs(copy + sort + reduce),
            copy: SimTime::from_secs(copy),
            sort: SimTime::from_secs(sort),
            reduce: SimTime::from_secs(reduce),
        }
    }

    #[test]
    fn copy_fraction_arithmetic() {
        let report = JobReport {
            makespan: SimTime::from_secs(100),
            maps: vec![MapSpan {
                start: SimTime::ZERO,
                end: SimTime::from_secs(10),
                local: true,
            }],
            reduces: vec![span(20, 0, 10)],
            ..Default::default()
        };
        // copy 20 over total (10 + 30) = 0.5
        assert!((report.copy_fraction() - 0.5).abs() < 1e-12);
        assert!((report.copy_share_of_reducers() - 20.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn outlier_removal_drops_biggest_copies() {
        let report = JobReport {
            makespan: SimTime::ZERO,
            maps: vec![],
            reduces: vec![span(1, 0, 1), span(100, 0, 1), span(2, 0, 1)],
            ..Default::default()
        };
        let trimmed = report.without_top_copy_outliers(1);
        assert_eq!(trimmed.reduces.len(), 2);
        assert!(trimmed
            .reduces
            .iter()
            .all(|r| r.copy < SimTime::from_secs(50)));
    }

    #[test]
    fn empty_report_is_zero() {
        let r = JobReport::default();
        assert_eq!(r.copy_fraction(), 0.0);
        assert_eq!(r.map_locality(), 0.0);
    }
}
