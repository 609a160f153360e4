//! Order statistics, the tail-percentile rule and the regression-bound
//! verdict shared by single runs and `compare`.

/// Linearly interpolated percentile (`p` in `0..=100`) of an ascending
/// slice; `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// `values` sorted ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First quartile, median and third quartile.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    [
        percentile(&s, 25.0),
        percentile(&s, 50.0),
        percentile(&s, 75.0),
    ]
}

/// Median of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Geometric mean of positive values; `NaN` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Samples strictly above the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (p / 100.0 * (n - 1) as f64).floor() as usize;
    n - 1 - rank
}

/// Percentiles a tail may be reported at.
const TAIL_GRID: [f64; 8] = [50.0, 75.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.96];

/// The highest percentile of [`TAIL_GRID`] with at least ten samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_rule(n: usize) -> Option<f64> {
    TAIL_GRID
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= 10)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - old) / old,
            Better::Higher => (old - new) / old,
        }
    }
}

/// Outcome of comparing one metric between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Median within the bound (or better).
    Within,
    /// Median worse by more than the bound.
    Regressed,
    /// Run-to-run spread wider than the bound on either side, and the
    /// runs overlap: no claim either way.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// Compare `new` runs against `old` runs of one metric under `bound`.
pub fn verdict(old: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(old).max(spread(new)) > bound {
        let all_better = old
            .iter()
            .all(|&o| new.iter().all(|&n| better.worsening(o, n) < 0.0));
        return if all_better {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    if better.worsening(median(old), median(new)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 25.0), 2.0);
        assert!((percentile(&s, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn geomean_of_medians() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        // The reason gm50 exists: a pooled median jumps between two
        // clusters of equal size, the geometric mean of per-cluster
        // medians does not.
        assert!((geomean(&[45.0, 50.0]) - 47.434).abs() < 1e-3);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_rule(19), None);
        assert_eq!(tail_rule(21), Some(50.0));
        assert_eq!(tail_rule(44), Some(75.0));
        assert_eq!(tail_rule(100), Some(90.0));
        assert_eq!(tail_rule(400), Some(97.5));
        assert_eq!(tail_rule(1_100), Some(99.0));
        assert_eq!(tail_rule(30_000), Some(99.96));
        for n in [21, 44, 100, 400, 1_100, 30_000] {
            let p = tail_rule(n).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn bounds_are_directional() {
        let old = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [112.0, 113.0, 111.0, 112.5, 111.5];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(
            verdict(&old, &slower, Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(verdict(&old, &slower, Better::Lower, 0.15), Verdict::Within);
        assert_eq!(verdict(&old, &faster, Better::Lower, 0.10), Verdict::Within);
        // Throughput: lower is worse.
        assert_eq!(
            verdict(&old, &faster, Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&old, &slower, Better::Higher, 0.10),
            Verdict::Within
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [50.0, 100.0, 150.0, 100.0, 75.0];
        let same = [100.0, 101.0, 99.0, 100.0, 100.0];
        assert_eq!(
            verdict(&noisy, &same, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        let far_better = [10.0, 11.0, 12.0, 10.5, 11.5];
        assert_eq!(
            verdict(&noisy, &far_better, Better::Lower, 0.10),
            Verdict::Within
        );
    }
}
