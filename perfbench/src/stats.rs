//! Order statistics for benchmark samples: median, quartiles,
//! percentiles and the geometric mean.
//!
//! Quartiles follow the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so the spreads this crate prints
//! are the spreads a Python reader of the same values computes.
//! Percentiles interpolate linearly between order statistics.

/// Fewest samples that must lie beyond a percentile for it to be
/// reported as supported.
pub const TAIL_SUPPORT: usize = 10;

/// Median and quartiles of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Summary> {
        let sorted = sorted(values);
        let median = percentile_sorted(&sorted, 0.5)?;
        let [q1, _, q3] = quartiles_sorted(&sorted)?;
        Some(Summary {
            n: sorted.len(),
            median,
            q1,
            q3,
        })
    }

    /// Distance between the quartiles as a share of the median (0 when
    /// the median is 0).
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// `values` sorted ascending. NaNs sort last.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points of sorted data, as Python's
/// `statistics.quantiles(data, n=4)` (method "exclusive") computes them.
/// A single sample is its own quartiles.
#[must_use]
pub fn quartiles_sorted(data: &[f64]) -> Option<[f64; 3]> {
    let len = data.len();
    match len {
        0 => None,
        1 => Some([data[0]; 3]),
        _ => {
            let m = len + 1;
            let mut cuts = [0.0; 3];
            for (i, cut) in (1..4).zip(cuts.iter_mut()) {
                let j = (i * m / 4).clamp(1, len - 1);
                // After clamping, delta may fall outside 0..=4; CPython
                // then extrapolates linearly, and so does this.
                let delta = (i * m) as f64 - (j * 4) as f64;
                *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
            }
            Some(cuts)
        }
    }
}

/// The `p`-quantile (`0 <= p <= 1`) of sorted data by linear
/// interpolation between the closest ranks.
#[must_use]
pub fn percentile_sorted(data: &[f64], p: f64) -> Option<f64> {
    let last = data.len().checked_sub(1)?;
    let rank = p.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(data[lo] + (data[hi] - data[lo]) * (rank - lo as f64))
}

/// The highest percentile (as a fraction, capped at 0.99) that has at
/// least [`TAIL_SUPPORT`] of `n` samples beyond it, rounded down to a
/// whole percent; `None` when even the median lacks that support.
#[must_use]
pub fn highest_supported(n: usize) -> Option<f64> {
    if n < 2 * TAIL_SUPPORT {
        return None;
    }
    let beyond = TAIL_SUPPORT as f64 / n as f64;
    let whole_percent = ((1.0 - beyond) * 100.0).floor() / 100.0;
    Some(whole_percent.min(0.99))
}

/// Geometric mean of strictly positive values; `None` when empty or
/// when any value is not positive.
#[must_use]
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).unwrap().median, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap().median, 2.5);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        let [q1, q2, q3] = quartiles_sorted(&data).unwrap();
        assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let [q1, q2, q3] = quartiles_sorted(&[1.0, 2.0, 3.0]).unwrap();
        assert!(close(q1, 1.0) && close(q2, 2.0) && close(q3, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let [q1, q2, q3] = quartiles_sorted(&[1.0, 2.0]).unwrap();
        assert!(close(q1, 0.75) && close(q2, 1.5) && close(q3, 2.25));
        assert_eq!(quartiles_sorted(&[7.0]), Some([7.0; 3]));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert!(close(s.spread(), 5.5 / 5.5));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let data: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!(close(percentile_sorted(&data, 0.99).unwrap(), 99.0));
        assert!(close(percentile_sorted(&[1.0, 3.0], 0.5).unwrap(), 2.0));
        assert!(close(percentile_sorted(&[5.0], 0.99).unwrap(), 5.0));
        assert!(percentile_sorted(&[], 0.5).is_none());
    }

    #[test]
    fn tail_support_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(100_000), Some(0.99));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(3), None);
    }

    #[test]
    fn geometric_mean() {
        assert!(close(geomean(&[1.0, 4.0, 16.0]).unwrap(), 4.0));
        assert!(geomean(&[]).is_none());
        assert!(geomean(&[1.0, 0.0]).is_none());
    }
}
