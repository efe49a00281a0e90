//! Order statistics for reported timings.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of the reported tail: the 98th percentile, or the
/// highest rank that still has ten samples beyond it when there are too
/// few samples for that (the maximum below eleven samples).
fn tail_rank(n: usize) -> usize {
    if n <= 10 {
        return n;
    }
    ((0.98 * n as f64).ceil() as usize).min(n - 10)
}

/// The tail timing: the 98th percentile when at least ten samples lie
/// beyond it, else the highest percentile that keeps ten samples beyond.
pub fn tail(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "tail of no samples");
    let v = sorted(xs);
    v[tail_rank(v.len()) - 1]
}

/// The percentile [`tail`] reports for `n` samples.
pub fn tail_percentile(n: usize) -> f64 {
    100.0 * tail_rank(n) as f64 / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 536 samples: rank 526 has exactly 10 beyond it.
        assert_eq!(tail_rank(536), 526);
        assert_eq!(tail_rank(1000), 980);
        assert_eq!(tail_rank(40), 30);
        assert_eq!(tail_rank(5), 5);
        let xs: Vec<f64> = (1..=536).map(f64::from).collect();
        assert_eq!(tail(&xs), 526.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
