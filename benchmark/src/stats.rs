//! Order statistics over the samples of one run.

/// Median; `values` is sorted in place. Panics on an empty sample, which
/// would be a harness bug.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 100.0);
        assert_eq!(percentile(&sorted, 99.0), 198.0);
        assert_eq!(percentile(&sorted, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
