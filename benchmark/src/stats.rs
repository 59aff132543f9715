//! Order statistics for the result tables and the verdict arithmetic of
//! `--compare`.

/// Median of the samples (mean of the two middle ones for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    // The epsilon keeps a product such as 0.9 * 10 from rounding up a rank.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)` (the
/// exclusive method), which is how the acceptance rule states run-to-run
/// spread. Fewer than two samples have no spread.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        return 0.0;
    }
    ((quartile(3) - quartile(1)) / mid).abs()
}

/// Outcome of comparing one metric on one workload between two run sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The second set's median is within the bound of the first's.
    Ok,
    /// The second set's median is worse than the first's by more than the bound.
    Worse,
    /// Run-to-run spread exceeds the bound, so the medians decide nothing.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `base`'s median `change`'s median is worse (negative
/// when it is better).
pub fn worse_by(base: &[f64], change: &[f64], higher_is_better: bool) -> f64 {
    let (a, b) = (median(base), median(change));
    let loss = if higher_is_better { a - b } else { b - a };
    if loss == 0.0 {
        0.0
    } else {
        loss / a.abs()
    }
}

/// Apply a metric's direction and bound to two run sets. A spread wider than
/// the bound leaves the pair unresolved unless every run of `change` reads
/// better than every run of `base`.
pub fn verdict(base: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    if quartile_spread(base).max(quartile_spread(change)) > bound {
        let all_better = base.iter().all(|a| {
            change
                .iter()
                .all(|b| if higher_is_better { b > a } else { b < a })
        });
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(base, change, higher_is_better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p90() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.9), 9.0);
        assert_eq!(percentile(&ten, 0.5), 5.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), 90.0);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn bound_and_direction_decide_the_verdict() {
        let base = [100.0, 101.0, 99.0, 100.0];
        // Lower is better: +3% is inside a 5% bound, +8% is not.
        assert_eq!(
            verdict(&base, &[103.0, 103.5, 102.5, 103.0], false, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &[108.0, 108.5, 107.5, 108.0], false, 0.05),
            Verdict::Worse
        );
        // The same +8% is an improvement when higher is better.
        assert_eq!(
            verdict(&base, &[108.0, 108.5, 107.5, 108.0], true, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &[92.0, 92.5, 91.5, 92.0], true, 0.05),
            Verdict::Worse
        );
        assert!((worse_by(&base, &[108.0], false) - 0.08).abs() < 1e-12);
        assert!((worse_by(&base, &[108.0], true) + 0.08).abs() < 1e-12);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [80.0, 120.0, 95.0, 105.0];
        assert_eq!(
            verdict(&noisy, &[100.0, 101.0, 99.0, 100.0], false, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[60.0, 70.0, 65.0, 75.0], false, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&noisy, &[60.0, 70.0, 65.0, 75.0], true, 0.05),
            Verdict::Unresolved
        );
    }
}
