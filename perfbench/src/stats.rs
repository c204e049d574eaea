//! Small, pure statistics helpers shared by every workload: medians over
//! repetitions, the tail-percentile rule, failure
//! fractions, the metric-name check and the live-loop remainder.

/// The median of `values` (mean of the middle two for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A tail percentile chosen by the sample-count rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 90.0).
    pub percentile: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub count: usize,
}

/// Percentiles the tail rule considers, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The minimum number of samples that must lie beyond a reported tail.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `values` (0 for an empty slice).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest candidate percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with the sample count, or
/// `None` when even the median has fewer than ten samples above it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| n > 0 && n - rank(n, p) >= TAIL_MIN_BEYOND)
        .map(|&p| Tail {
            percentile: p,
            value: percentile(values, p),
            count: n,
        })
}

/// `failed / attempted`, defined as 0 when nothing was attempted (no
/// attempt, no failure).
pub fn fraction(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `true` if `name` is a legal metric name: one or more of
/// `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The live loop's unexplained time: the untraced `run_live` wall time
/// minus the sum of the traced layers' self times. It holds the
/// `RealTimeIds` harness, its telemetry and whatever tracing changed;
/// it may be negative when the traced loop ran slower than the
/// untraced one.
pub fn remainder(untraced_wall_s: f64, layer_self_s: &[f64]) -> f64 {
    untraced_wall_s - layer_self_s.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 samples: p99 has 1 beyond, p95 has 5, p90 has exactly 10.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).expect("100 samples support a tail");
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.count, 100);

        // 1000 samples support p99 (10 beyond) but not p99.9 (1 beyond).
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.percentile), Some(99.0));

        // 99 samples: p90 leaves 9 beyond, so p75 is the highest.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.percentile), Some(75.0));

        // 19 samples: even the median has only 9 beyond it.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn fraction_with_zero_denominator_is_zero() {
        assert_eq!(fraction(0, 0), 0.0);
        assert_eq!(fraction(3, 0), 0.0);
        assert_eq!(fraction(1, 4), 0.25);
        assert_eq!(fraction(4, 4), 1.0);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "ids.window_ms.p90.rf",
            "netsim.phase.app-timer",
            "a",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "has space", "ms/s", "quote\"", "ü", "a,b", "x:y"] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn remainder_subtracts_every_layer() {
        let r = remainder(2.0, &[1.2, 0.3, 0.25]);
        assert!((r - 0.25).abs() < 1e-12, "{r}");
        // A traced loop slower than the untraced run leaves a negative
        // remainder; it is reported as measured, never clamped.
        let r = remainder(1.0, &[0.8, 0.4]);
        assert!((r + 0.2).abs() < 1e-12, "{r}");
        assert_eq!(remainder(1.5, &[]), 1.5);
    }
}
