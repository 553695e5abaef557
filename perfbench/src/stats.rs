//! Order statistics for the benchmark's reports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches the
//! one a reader computes from the printed values.

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, as `statistics.quantiles(xs, n=4)` gives
/// them. A single sample is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let n = 4;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn rel_spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// A latency tail: the highest whole percentile that has at least ten
/// samples ranked beyond it, with its nearest-rank value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: u32,
    pub value: f64,
}

/// Samples that must rank beyond a reported percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile in 50..=99 whose nearest-rank sample has at
/// least [`TAIL_BEYOND`] samples ranked after it; `None` when even the
/// median lacks them.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    (50..=99u32).rev().find_map(|p| {
        // Nearest rank, 1-based: ceil(p/100 * n).
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| Tail {
            percentile: p,
            value: s[rank - 1],
        })
    })
}

/// The fastest of repeated host times: the repeat least disturbed by
/// other load on the host.
///
/// # Panics
/// Panics on an empty slice.
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of no repeats");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Host seconds of one round of identical jobs, each job at its
/// [`fastest`] repeat.
///
/// # Panics
/// Panics if a job has no repeats.
pub fn fastest_total(jobs: &[Vec<f64>]) -> f64 {
    jobs.iter().map(|t| fastest(t)).sum()
}

/// Geometric mean of positive values.
///
/// # Panics
/// Panics on an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no samples");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([1, 9], n=4) == [-1.0, 5.0, 11.0]: the
        // exclusive method extrapolates beyond tiny samples.
        assert_eq!(quartiles(&[1.0, 9.0]), (-1.0, 11.0));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((rel_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(rel_spread(&[3.0, 3.0, 3.0]), 0.0);
        assert_eq!(rel_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&xs),
            Some(Tail {
                percentile: 99,
                value: 990.0
            })
        );
        // 999 samples: p99 is rank 990 with only 9 beyond; fall to p98.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.percentile), Some(98));
        // 100 samples: p90 (rank 90) is the highest with 10 beyond.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(
            tail(&xs),
            Some(Tail {
                percentile: 90,
                value: 90.0
            })
        );
        // Too few samples for even the median to have 10 beyond.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[0.3, 0.1, 0.2]), 0.1);
        assert_eq!(fastest(&[2.5]), 2.5);
    }

    #[test]
    fn fastest_total_sums_each_jobs_minimum() {
        assert_eq!(fastest_total(&[vec![3.0, 2.0, 4.0], vec![1.5]]), 3.5);
        assert_eq!(fastest_total(&[]), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
    }
}
