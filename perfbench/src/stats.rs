//! Order statistics over one run's samples.

/// Median and quartiles of a sample set. Quartiles use the "exclusive"
/// method of Python's `statistics.quantiles(n=4)`, so the benchmark and
/// any script reading its output agree on what a quartile is.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (q1, q3) = if s.len() < 2 {
            (s[0], s[0])
        } else {
            (quartile(&s, 1), quartile(&s, 3))
        };
        Some(Summary {
            n: s.len(),
            q1,
            median: median_sorted(&s),
            q3,
        })
    }
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `i`-th of three cut points (exclusive method), `s` sorted, len ≥ 2.
fn quartile(s: &[f64], i: usize) -> f64 {
    let n = s.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
}

/// The highest percentile of `samples` that still has at least ten
/// samples above it (nearest-rank), as `(percentile, value, beyond)`.
/// With fewer than twenty samples no percentile qualifies; the median
/// rank is returned with its (smaller) count beyond.
pub fn tail(samples: &[f64]) -> (f64, f64, usize) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    for p in [99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let rank = rank.clamp(1, n);
        if n - rank >= 10 {
            return (p, s[rank - 1], n - rank);
        }
    }
    let rank = n.div_ceil(2);
    (50.0, s[rank - 1], n - rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0, 10));
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 13.0, 12));
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 5.0, 4));
    }
}
