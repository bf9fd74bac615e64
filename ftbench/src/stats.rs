//! Order statistics over per-op samples.

/// Index of the nearest-rank `q`-quantile (`0 < q ≤ 1`) among `len`
/// ascending-sorted samples.
///
/// # Panics
/// Panics when `len` is 0.
fn rank(len: usize, q: f64) -> usize {
    assert!(len > 0, "quantile of no samples");
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// Nearest-rank `q`-quantile of ascending-sorted samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Median and tail of one latency distribution, with the sample count
/// behind them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    /// Samples strictly above `p99`: the tail is only reported when at
    /// least ten lie beyond it.
    pub beyond_p99: usize,
}

/// Summarizes `samples`, sorting them in place. Per-op latencies are kept
/// as `f32` so that the sample store stays small next to the memory the
/// workload itself uses.
///
/// # Panics
/// Panics on an empty slice.
pub fn tail(samples: &mut [f32]) -> Tail {
    samples.sort_by(f32::total_cmp);
    let at = |q| f64::from(samples[rank(samples.len(), q)]);
    let p99 = at(0.99);
    Tail {
        count: samples.len(),
        p50: at(0.50),
        p99,
        beyond_p99: samples.iter().filter(|&&x| f64::from(x) > p99).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_counts_samples_beyond_p99() {
        let mut v: Vec<f32> = (1..=2000u16).rev().map(f32::from).collect();
        let t = tail(&mut v);
        assert_eq!(t.count, 2000);
        assert_eq!(t.p99, 1980.0);
        assert_eq!(t.beyond_p99, 20);
    }
}
