//! Order statistics for the benchmark's reports: the median and the tail rule
//! of the choosing-metrics guide.

/// Median; 0 for no samples, so an operation that never ran reports 0 s.
pub fn median(values: &[f64]) -> f64 {
    bdm_util::median(values).unwrap_or(0.0)
}

/// The highest whole percentile that still has at least ten samples beyond
/// it — the tail a sample of size `n` can support (p66 at n = 30, p75 at 40,
/// p80 at 50, p90 at 100). `None` up to twenty samples, where that
/// percentile would not lie above the median.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (n > 20).then(|| (100 * (n - 10) / n) as u32)
}

/// Nearest-rank percentile of an ascending slice (`1 <= p <= 100`).
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// `(percentile, value)` of the supported tail of `values`, if any.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let p = tail_percentile(values.len())?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((p, percentile(&sorted, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_matches_the_window_sizes() {
        assert_eq!(tail_percentile(30), Some(66));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(50), Some(80));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(20), None);
        assert_eq!(tail_percentile(21), Some(52));
    }

    #[test]
    fn tail_value_leaves_at_least_ten_samples_beyond() {
        for n in [21usize, 30, 40, 50, 100, 137] {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (p, v) = tail(&values).unwrap();
            let beyond = values.iter().filter(|&&x| x > v).count();
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond} beyond");
            // One percentile higher would leave fewer than ten.
            let next = percentile(&values, p + 1);
            assert!(values.iter().filter(|&&x| x > next).count() < 10, "n={n}");
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
