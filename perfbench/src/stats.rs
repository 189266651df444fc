//! Order statistics the benchmark reports: medians, the tail-percentile
//! rule, and per-pair ratios.

/// Median of `values` (mean of the two middle values for even counts).
/// Empty input yields NaN, which the caller reports as a failed workload.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: u32) -> usize {
    ((n * p as usize).div_ceil(100)).clamp(1, n)
}

/// The tail percentile to report for `n` samples: the highest percentile
/// up to 90 that still has at least ten samples beyond it, and never
/// below the median. 100 samples or more give p90.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=90)
        .rev()
        .find(|&p| n >= 20 && n - rank(n, p) >= 10)
        .unwrap_or(50)
}

/// Median over pairs of `treatment ÷ control`. Ratios are taken inside
/// each back-to-back pair, so slow host drift cancels before the median.
pub fn pair_ratio_median(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs.iter().map(|(c, t)| t / c).collect();
    median(&ratios)
}

/// Relative worsening of `b` against `a` for a metric where lower
/// (`lower_is_better`) or higher values are better; negative = improved.
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(1000), 90);
        // 50 samples: p80 is rank 40, leaving exactly ten beyond.
        assert_eq!(tail_percentile(50), 80);
        assert_eq!(tail_percentile(99), 89);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_percentile(12), 50);
        assert_eq!(tail_percentile(0), 50);
        for n in 20..400 {
            let p = tail_percentile(n);
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            if p < 90 {
                assert!(n - rank(n, p + 1) < 10, "n={n}: p{} also fits", p + 1);
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
    }

    #[test]
    fn pair_ratios_are_taken_per_pair_then_medianed() {
        // The host doubled in speed between the first and last pair; the
        // ratio of medians would read 1.2/1.5 = 0.8, per-pair ratios 1.2.
        let pairs = [(2.0, 2.4), (1.5, 1.8), (1.0, 1.2)];
        assert!((pair_ratio_median(&pairs) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, true) < 0.0);
    }
}
