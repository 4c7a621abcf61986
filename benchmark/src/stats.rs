//! Order statistics over rep timings.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the driver applies to the
//! medians of separate runs; using the same rule inside a run keeps
//! `harness.wall_iqr_share` comparable with the driver's spread.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return [v[0]; 3];
    }
    let cut = |i: usize| {
        // Position i/4 of the way through n + 1 gaps, as CPython does it in
        // integer arithmetic: j is the upper neighbour, delta/4 its weight.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Interquartile mean: the mean of the samples left after dropping the
/// lowest and the highest quarter (rounded down) of them.
///
/// On a shared machine whose speed shifts between phases lasting seconds, a
/// run's median lands in whichever phase held most reps, so medians of runs
/// are bimodal; a mean moves with the share of reps in each phase and
/// repeats better from run to run, and dropping the outer quarters keeps one
/// stalled rep from moving it.
pub fn midmean(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "midmean of no samples");
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4)
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            [15.0, 40.0, 120.0]
        );
        // statistics.quantiles([1, 2], n=4) extrapolates past both ends.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn midmean_drops_the_outer_quarters() {
        // Eight samples: two dropped from each end, one of them a stall.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1000.0];
        assert_eq!(midmean(&v), 4.5);
        assert_eq!(midmean(&[2.0, 4.0, 9.0]), 5.0);
        assert_eq!(midmean(&[7.0]), 7.0);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }
}
