//! Order statistics for the ledger: medians, quartiles and the tail
//! percentile a sample can support.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// A value that was counted or computed, not sampled.
    pub fn exact(v: f64) -> Self {
        Summary {
            n: 1,
            q1: v,
            median: v,
            q3: v,
        }
    }

    pub fn of(samples: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(samples);
        Summary {
            n: samples.len(),
            q1,
            median,
            q3,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them, so the spreads computed here are the ones the driver computes.
/// Fewer than two samples have no spread: all three are the sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Duration of the "median unit" of a run that repeated one unit of
/// work: the sum over positions of the median, across units, of the
/// part at that position. Part `k` is the same work in every unit, so a
/// burst of interference moves one unit's part, not the sum. Units cut
/// short (a failed run) are left out.
pub fn composite_median(units: &[Vec<f64>]) -> f64 {
    let parts = units.iter().map(Vec::len).max().unwrap_or(0);
    (0..parts)
        .map(|k| {
            let at_k: Vec<f64> = units
                .iter()
                .filter(|u| u.len() == parts)
                .map(|u| u[k])
                .collect();
            median(&at_k)
        })
        .sum()
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: usize) -> usize {
    (p * n).div_ceil(100)
}

/// Nearest-rank percentile of a sample (`p` in 0..=100).
pub fn percentile(samples: &[f64], p: usize) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), p).clamp(1, v.len()) - 1]
}

/// The highest of p99 / p95 / p90 that has at least ten samples beyond
/// it, with its label. A sample too small for p90 has no tail to report.
pub fn tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    let n = samples.len();
    [("p99", 99), ("p95", 95), ("p90", 90)]
        .into_iter()
        .find(|&(_, p)| n.saturating_sub(rank(n, p)) >= 10)
        .map(|(label, p)| (label, percentile(samples, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([5,1,9,3,7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), (2.0, 5.0, 8.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 1000 samples: ten lie beyond p99.
        assert_eq!(tail(&ramp(1000)), Some(("p99", 990.0)));
        // 999: only nine beyond p99 (rank 990), so p95.
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some("p95"));
        assert_eq!(tail(&ramp(200)), Some(("p95", 190.0)));
        assert_eq!(tail(&ramp(199)).map(|t| t.0), Some("p90"));
        assert_eq!(tail(&ramp(100)), Some(("p90", 90.0)));
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn composite_median_takes_each_position_from_the_typical_unit() {
        // Three units of the same three parts; one part of one unit is hit.
        let units = vec![
            vec![1.0, 2.0, 3.0],
            vec![1.1, 9.0, 3.0],
            vec![0.9, 2.2, 3.2],
        ];
        assert!((composite_median(&units) - (1.0 + 2.2 + 3.0)).abs() < 1e-12);
        // One unit is its own median; a truncated unit is ignored.
        assert_eq!(composite_median(&[vec![4.0, 5.0]]), 9.0);
        assert_eq!(composite_median(&[vec![4.0, 5.0], vec![1.0]]), 9.0);
        assert_eq!(composite_median(&[]), 0.0);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(s.n, 10);
        assert!((s.rel_spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::exact(3.0).rel_spread(), 0.0);
    }
}
