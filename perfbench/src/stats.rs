//! Order statistics for timing samples.

/// Summary of one timing's samples: median, quartiles, a tail percentile and the count.
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest of the standard percentiles with at least ten samples beyond it,
    /// as `(percentile, value)`; `None` when there are ten samples or fewer.
    pub tail: Option<(f64, f64)>,
    pub n: usize,
}

const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Summarises `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let (q1, q3) = quartiles(&s);
    let tail = TAIL_PERCENTILES.iter().find_map(|&p| {
        // Nearest-rank percentile: the value at 1-based rank ⌈p·n/100⌉.
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        (n - rank >= 10).then(|| (p, s[rank - 1]))
    });
    Some(Summary {
        median: median_sorted(&s),
        q1,
        q3,
        tail,
        n,
    })
}

/// Median of the samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        0.0
    } else {
        median_sorted(&s)
    }
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so figures here match a reader's own check.
fn quartiles(s: &[f64]) -> (f64, f64) {
    let n = s.len();
    if n < 2 {
        return (s[0], s[0]);
    }
    let at = |q: usize| {
        let pos = (q * (n + 1)) as i64;
        let j = (pos / 4).clamp(1, n as i64 - 1);
        let delta = (pos - 4 * j) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let sum = summarize(&s).unwrap();
        assert_eq!((sum.q1, sum.median, sum.q3), (2.75, 5.5, 8.25));
        assert!(sum.tail.is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(summarize(&s).unwrap().tail, Some((50.0, 10.0)));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(summarize(&s).unwrap().tail, Some((90.0, 90.0)));
    }
}
