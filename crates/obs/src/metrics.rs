//! Scalar metrics registry: monotonic counters, gauges, and log₂-bucketed
//! histograms with p50/p95/p99 estimation. `BTreeMap`-backed so rendering is
//! deterministic.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

type Key = Cow<'static, str>;

/// Log₂-bucketed histogram of `u64` samples. Bucket `i` (for `i >= 1`) holds
/// values in `[2^(i-1), 2^i)`; bucket 0 holds zeros. Percentiles are
/// estimated at the geometric midpoint of the containing bucket, clamped to
/// the observed min/max — ≤ √2 relative error, constant memory.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest observed sample.
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`); `None` with no samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if q >= 1.0 {
            return Some(self.max as f64);
        }
        let rank = crate::quantile::nearest_rank(self.count, q);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            if seen > rank {
                let est = if i == 0 {
                    0.0
                } else {
                    // Geometric midpoint of [2^(i-1), 2^i).
                    2f64.powf(i as f64 - 0.5)
                };
                return Some(est.clamp(self.min as f64, self.max as f64));
            }
        }
        Some(self.max as f64)
    }
}

/// Named counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    hists: BTreeMap<Key, Histogram>,
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `delta` to a monotonic counter (created at 0).
    pub fn inc(&mut self, name: impl Into<Key>, delta: u64) {
        *self.counters.entry(name.into()).or_insert(0) += delta;
    }

    /// Current counter value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in ascending name order — a stable snapshot for
    /// serializers (e.g. a run profile embedding its counters).
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// Set a gauge to `value`.
    pub fn set_gauge(&mut self, name: impl Into<Key>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Current gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record a histogram sample.
    pub fn observe(&mut self, name: impl Into<Key>, value: u64) {
        self.hists.entry(name.into()).or_default().observe(value);
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Merge another registry into this one (counters add, gauges overwrite,
    /// histograms bucket-wise add).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.hists {
            let mine = self.hists.entry(k.clone()).or_default();
            mine.count += h.count;
            mine.sum = mine.sum.saturating_add(h.sum);
            mine.min = mine.min.min(h.min);
            mine.max = mine.max.max(h.max);
            for (b, n) in mine.buckets.iter_mut().zip(h.buckets.iter()) {
                *b += n;
            }
        }
    }

    /// Deterministic plain-text dump (sorted by name within each section).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<40} {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<40} {v:.3}");
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {k:<40} n={} mean={:.1} p50={:.1} p95={:.1} p99={:.1} max={}",
                    h.count(),
                    h.mean(),
                    h.quantile(0.50).unwrap_or(0.0),
                    h.quantile(0.95).unwrap_or(0.0),
                    h.quantile(0.99).unwrap_or(0.0),
                    h.max(),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut m = Metrics::new();
        m.inc("spills", 2);
        m.inc("spills", 3);
        m.set_gauge("ratio", 0.5);
        assert_eq!(m.counter("spills"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("ratio"), Some(0.5));
    }

    #[test]
    fn histogram_percentiles_bracket_truth() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        // Log2 buckets: estimates are within a factor of √2 of the exact
        // percentile, and always inside [min, max].
        let p50 = h.quantile(0.5).unwrap();
        assert!((500.0 / 1.5..=500.0 * 1.5).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((990.0 / 1.5..=1000.0).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0), Some(1000.0));
    }

    #[test]
    fn histogram_zero_and_single() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        h.observe(0);
        assert_eq!(h.quantile(0.5), Some(0.0));
        h.observe(0);
        h.observe(0);
        assert_eq!(h.quantile(0.99), Some(0.0));
    }

    #[test]
    fn counters_snapshot_is_name_ordered() {
        let mut m = Metrics::new();
        m.inc("zz", 7);
        m.inc("aa", 3);
        let snap: Vec<(&str, u64)> = m.counters().collect();
        assert_eq!(snap, vec![("aa", 3), ("zz", 7)]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Metrics::new();
        a.inc("n", 1);
        a.observe("lat", 10);
        let mut b = Metrics::new();
        b.inc("n", 2);
        b.observe("lat", 1000);
        a.merge(&b);
        assert_eq!(a.counter("n"), 3);
        let h = a.histogram("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 1000);
    }

    // Merge consistency: merging two histograms must be indistinguishable
    // from observing the concatenated sample stream, and both must agree
    // with the exact nearest-rank percentile up to the log₂-bucket blur
    // (factor √2 each way, clamped to [min, max]).
    proptest::proptest! {
        #[test]
        fn prop_merge_matches_concatenation(
            xs in proptest::collection::vec(0u64..1_000_000, 1..200),
            ys in proptest::collection::vec(0u64..1_000_000, 1..200),
        ) {
            let mut ha = Histogram::default();
            let mut hb = Histogram::default();
            let mut hall = Histogram::default();
            for &x in &xs {
                ha.observe(x);
                hall.observe(x);
            }
            for &y in &ys {
                hb.observe(y);
                hall.observe(y);
            }
            let mut merged = Metrics::new();
            {
                let mut a = Metrics::new();
                a.hists.insert("h".into(), ha);
                let mut b = Metrics::new();
                b.hists.insert("h".into(), hb);
                merged.merge(&a);
                merged.merge(&b);
            }
            let m = merged.histogram("h").unwrap();
            proptest::prop_assert_eq!(m.count(), hall.count());
            proptest::prop_assert_eq!(m.sum(), hall.sum());
            proptest::prop_assert_eq!(m.max(), hall.max());
            proptest::prop_assert_eq!(m.buckets, hall.buckets);

            let mut sorted: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
            sorted.sort_unstable();
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let est = m.quantile(q).unwrap();
                let exact = crate::quantile::percentile_sorted(&sorted, q) as f64;
                proptest::prop_assert_eq!(m.quantile(q), hall.quantile(q));
                // Same rank as the exact helper; value blurred ≤ √2 by the
                // bucket midpoint, except where clamping pins it exactly.
                let lo = (exact / std::f64::consts::SQRT_2) - 1.0;
                let hi = (exact * std::f64::consts::SQRT_2) + 1.0;
                proptest::prop_assert!(
                    (lo..=hi).contains(&est),
                    "q={} est={} exact={}", q, est, exact
                );
            }
        }
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let mut m = Metrics::new();
        m.inc("zz", 1);
        m.inc("aa", 1);
        m.observe("lat", 7);
        let r1 = m.render();
        let r2 = m.render();
        assert_eq!(r1, r2);
        assert!(r1.find("aa").unwrap() < r1.find("zz").unwrap());
    }
}
