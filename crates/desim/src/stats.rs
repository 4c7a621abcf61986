//! Online statistics and histograms for simulation outputs.

use crate::SimTime;

/// Streaming summary statistics (Welford's algorithm for variance).
///
/// Accepts `f64` samples; [`OnlineStats::add_time`] is a convenience for
/// recording [`SimTime`] values in seconds.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty summary.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Record a [`SimTime`] sample, in seconds.
    pub fn add_time(&mut self, t: SimTime) {
        self.add(t.as_secs_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }
    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
    /// Minimum sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }
    /// Maximum sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
    /// Population variance (0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }
    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merge another summary into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A set of samples retained in full, for percentile queries.
///
/// Simulations in this suite produce at most a few million samples per run, so
/// retaining them is cheap and exact percentiles beat sketch error bars.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    data: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Empty sample set.
    pub fn new() -> Self {
        Samples {
            data: Vec::new(),
            sorted: true,
        }
    }

    /// Record one sample.
    pub fn add(&mut self, x: f64) {
        self.data.push(x);
        self.sorted = false;
    }

    /// Record a [`SimTime`] sample, in seconds.
    pub fn add_time(&mut self, t: SimTime) {
        self.add(t.as_secs_f64());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }
    /// True when no samples are recorded.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.data
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// Exact percentile (nearest-rank), `p` in `[0, 100]`. Returns 0 if empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (self.data.len() as f64 - 1.0)).round() as usize;
        self.data[rank]
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Read-only view of the raw samples (unsorted order not guaranteed).
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Summarize into [`OnlineStats`].
    pub fn summary(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        for &x in &self.data {
            s.add(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn online_stats_empty_is_zeroed() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.add(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        b.add(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 3.0);
        let empty = OnlineStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn percentiles() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.add(i as f64);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        // Nearest-rank on 100 samples: rank round(0.5 * 99) = 50 -> value 51.
        assert_eq!(s.median(), 51.0);
        // Out-of-range p is clamped.
        assert_eq!(s.percentile(150.0), 100.0);
    }

    #[test]
    fn samples_empty() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(50.0), 0.0);
        assert!(s.is_empty());
    }
}
