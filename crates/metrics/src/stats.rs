//! Response-time statistics.

/// Summary statistics over a set of response times (milliseconds).
///
/// ```
/// use daris_metrics::ResponseStats;
/// let stats = ResponseStats::from_millis(&[5.0, 10.0, 15.0, 20.0]);
/// assert_eq!(stats.count, 4);
/// assert_eq!(stats.mean_ms, 12.5);
/// assert_eq!(stats.max_ms, 20.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseStats {
    /// Number of samples.
    pub count: usize,
    /// Minimum, in milliseconds.
    pub min_ms: f64,
    /// Mean, in milliseconds.
    pub mean_ms: f64,
    /// Median (50th percentile), in milliseconds.
    pub p50_ms: f64,
    /// 95th percentile, in milliseconds.
    pub p95_ms: f64,
    /// 99th percentile, in milliseconds.
    pub p99_ms: f64,
    /// Maximum (worst case observed), in milliseconds.
    pub max_ms: f64,
}

impl ResponseStats {
    /// An all-zero summary for an empty sample set.
    pub fn empty() -> Self {
        ResponseStats {
            count: 0,
            min_ms: 0.0,
            mean_ms: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            max_ms: 0.0,
        }
    }

    /// Merges statistics computed over disjoint sample sets (e.g. one per
    /// cluster device). Counts, extrema and the mean merge exactly;
    /// percentiles are approximated by a count-weighted average since the raw
    /// samples are no longer available.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a ResponseStats>) -> Self {
        let non_empty: Vec<&ResponseStats> = parts.into_iter().filter(|s| s.count > 0).collect();
        // A single contributing part merges to exactly itself (the weighted
        // averages below would round-trip its values through `x * n / n`).
        if let [only] = non_empty.as_slice() {
            return **only;
        }
        let mut out = ResponseStats::empty();
        let mut min = f64::INFINITY;
        let mut mean_sum = 0.0;
        let mut p50_sum = 0.0;
        let mut p95_sum = 0.0;
        let mut p99_sum = 0.0;
        for s in non_empty {
            let n = s.count as f64;
            out.count += s.count;
            min = min.min(s.min_ms);
            out.max_ms = out.max_ms.max(s.max_ms);
            mean_sum += s.mean_ms * n;
            p50_sum += s.p50_ms * n;
            p95_sum += s.p95_ms * n;
            p99_sum += s.p99_ms * n;
        }
        if out.count == 0 {
            return ResponseStats::empty();
        }
        let total = out.count as f64;
        out.min_ms = min;
        out.mean_ms = mean_sum / total;
        out.p50_ms = p50_sum / total;
        out.p95_ms = p95_sum / total;
        out.p99_ms = p99_sum / total;
        out
    }

    /// Computes statistics from raw millisecond samples.
    pub fn from_millis(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::empty();
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let sum: f64 = sorted.iter().sum();
        let percentile = |p: f64| -> f64 {
            #[allow(clippy::cast_sign_loss)] // p in [0, 1] and count >= 1: a non-negative rank
            let rank = (p * (count as f64 - 1.0)).round() as usize;
            sorted[rank.min(count - 1)]
        };
        ResponseStats {
            count,
            min_ms: sorted[0],
            mean_ms: sum / count as f64,
            p50_ms: percentile(0.50),
            p95_ms: percentile(0.95),
            p99_ms: percentile(0.99),
            max_ms: sorted[count - 1],
        }
    }
}

impl Default for ResponseStats {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_all_zero() {
        let s = ResponseStats::from_millis(&[]);
        assert_eq!(s, ResponseStats::empty());
        assert_eq!(s.count, 0);
    }

    #[test]
    fn single_sample() {
        let s = ResponseStats::from_millis(&[7.5]);
        assert_eq!(s.count, 1);
        assert_eq!(s.min_ms, 7.5);
        assert_eq!(s.max_ms, 7.5);
        assert_eq!(s.p95_ms, 7.5);
        assert_eq!(s.mean_ms, 7.5);
    }

    #[test]
    fn percentiles_are_ordered() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = ResponseStats::from_millis(&samples);
        assert!(s.min_ms <= s.p50_ms);
        assert!(s.p50_ms <= s.p95_ms);
        assert!(s.p95_ms <= s.p99_ms);
        assert!(s.p99_ms <= s.max_ms);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.p95_ms - 95.0).abs() <= 1.0);
    }

    #[test]
    fn merged_combines_disjoint_sample_sets() {
        let a = ResponseStats::from_millis(&[10.0, 20.0]);
        let b = ResponseStats::from_millis(&[40.0, 50.0, 60.0]);
        let m = ResponseStats::merged([&a, &b]);
        assert_eq!(m.count, 5);
        assert_eq!(m.min_ms, 10.0);
        assert_eq!(m.max_ms, 60.0);
        // Exact weighted mean: (15*2 + 50*3) / 5 = 36.
        assert!((m.mean_ms - 36.0).abs() < 1e-9);
        // Empty parts are ignored entirely.
        let with_empty = ResponseStats::merged([&a, &ResponseStats::empty()]);
        assert_eq!(with_empty, a);
        assert_eq!(ResponseStats::merged([]), ResponseStats::empty());
    }

    #[test]
    fn unsorted_input_is_handled() {
        let s = ResponseStats::from_millis(&[30.0, 10.0, 20.0]);
        assert_eq!(s.min_ms, 10.0);
        assert_eq!(s.p50_ms, 20.0);
        assert_eq!(s.max_ms, 30.0);
    }
}
