//! Order statistics for the benchmark's timings.

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) gives them,
/// so the spread printed here is the spread the steadiness rule measures.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (v[0], v[0])
        } else {
            (exclusive_quantile(&v, 1), exclusive_quantile(&v, 3))
        };
        Summary { median, q1, q3, n }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// The `i`-th quartile cut point of sorted data, `statistics.quantiles`
/// exclusive method: position `i·(n+1)/4`, linearly interpolated and
/// clamped to the data.
fn exclusive_quantile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 / 4.0 - j as f64;
    let lo = sorted[j - 1];
    let hi = sorted[j];
    lo + (hi - lo) * delta
}

/// The highest percentile of `values` that has at least `beyond` samples
/// above it: `(percentile, value)`, or `None` when the sample is too small
/// to support a tail. A tail must lie at or above the upper quartile to say
/// anything the median does not.
pub fn tail(values: &[f64], beyond: usize) -> Option<(f64, f64)> {
    if values.len() <= beyond {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() - beyond; // the k-th smallest has `beyond` samples above
    let pct = 100.0 * k as f64 / v.len() as f64;
    (pct >= 75.0).then(|| (pct, v[k - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_needs_enough_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((90.0, 90.0)));
        assert_eq!(tail(&v[..10], 10), None);
        assert_eq!(tail(&v[..20], 10), None, "p50 is no tail");
    }
}
