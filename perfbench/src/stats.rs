//! The benchmark's own statistics: medians and quartiles of repeated
//! measurements, the tail percentile a sample set can support, and the
//! due-time latency arithmetic of the open-loop generator.

/// Linear-interpolated quantile of an ascending, non-empty sample set
/// (the "inclusive" convention: `q = 0` is the minimum, `q = 1` the
/// maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample set");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// First quartile, median and third quartile, with the same exclusive
/// method as Python's `statistics.quantiles(xs, n=4)`, so the spreads
/// this program prints match the ones computed from its results. Needs
/// at least two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let s = sorted(xs);
    let n = s.len();
    let m = (n + 1) as f64;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let pos = (i + 1) as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        *slot = s[j - 1] + (s[j] - s[j - 1]) * delta;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn relative_spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

/// The highest of the usual tail percentiles (99.9, 99, 95, 90, 50) that
/// leaves at least ten samples beyond it in a set of `n`; `None` when not
/// even the median does.
pub fn supported_percentile(n: usize) -> Option<f64> {
    // Per-mille integers keep the "ten beyond" count exact.
    [999usize, 990, 950, 900, 500]
        .into_iter()
        .find(|&pm| n * (1000 - pm) / 1000 >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// A percentile summary of one latency sample set, in the samples' unit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Tail {
    pub count: usize,
    pub p50: f64,
    /// The 99th percentile when at least ten samples lie beyond it,
    /// else the highest percentile that has them ([`Tail::p99_pct`]),
    /// else the maximum.
    pub p99: f64,
    /// Which percentile `p99` is; `None` when it is the maximum.
    pub p99_pct: Option<f64>,
    pub max: f64,
}

impl Tail {
    pub fn of(xs: &[f64]) -> Tail {
        if xs.is_empty() {
            return Tail::default();
        }
        let s = sorted(xs);
        let max = s[s.len() - 1];
        let p99_pct = supported_percentile(s.len()).map(|p| p.min(99.0));
        Tail {
            count: s.len(),
            p50: quantile_sorted(&s, 0.5),
            p99: p99_pct.map_or(max, |p| quantile_sorted(&s, p / 100.0)),
            p99_pct,
            max,
        }
    }
}

/// Open-loop latency of one request, timed from when it was *due*:
/// the generator's lateness in sending it (never negative — an early
/// send is clamped, since the generator never sends before the due
/// time on purpose) plus the serving engine's own submit→answer span.
pub fn due_time_latency_s(due_s: f64, sent_s: f64, engine_latency_s: f64) -> f64 {
    (sent_s - due_s).max(0.0) + engine_latency_s
}

/// Mean batch size as seen by batches, from the batch size each request
/// reports: a batch of `b` rows is reported `b` times, so it contributes
/// `1/b` per request and the batch count is `Σ 1/b`.
pub fn batch_mean_from_requests(batch_sizes: impl IntoIterator<Item = usize>) -> f64 {
    let (mut rows, mut batches) = (0usize, 0.0f64);
    for b in batch_sizes {
        rows += 1;
        batches += 1.0 / b.max(1) as f64;
    }
    if batches > 0.0 {
        rows as f64 / batches
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        let spread = relative_spread(&xs);
        assert!((spread - 5.5 / 5.5).abs() < 1e-12, "{spread}");
    }

    #[test]
    fn inclusive_quantile_interpolates() {
        let s = [0.0, 10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile_sorted(&s, 0.0), 0.0);
        assert_eq!(quantile_sorted(&s, 1.0), 40.0);
        assert_eq!(quantile_sorted(&s, 0.5), 20.0);
        assert_eq!(quantile_sorted(&s, 0.125), 5.0);
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(9_999), Some(99.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(19), None);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = Tail::of(&xs);
        assert_eq!(t.p99_pct, Some(99.0));
        assert!((t.p99 - 989.01).abs() < 1e-9, "{}", t.p99);
        assert_eq!(t.max, 999.0);
        assert_eq!(t.p50, 499.5);
        // 100 000 samples support p99.9, but p99 is asked for.
        let big: Vec<f64> = (0..100_000).map(f64::from).collect();
        assert_eq!(Tail::of(&big).p99_pct, Some(99.0));
        // p99 of 500 samples falls back to the supported p95.
        let small: Vec<f64> = (0..500).map(f64::from).collect();
        let t = Tail::of(&small);
        assert_eq!(t.p99_pct, Some(95.0));
        assert!((t.p99 - 474.05).abs() < 1e-9, "{}", t.p99);
        // Too few samples for any tail: the maximum stands in.
        let tiny = Tail::of(&[3.0, 1.0, 2.0]);
        assert_eq!((tiny.p99, tiny.p99_pct), (3.0, None));
        assert_eq!(Tail::of(&[]).count, 0);
    }

    #[test]
    fn due_time_latency_adds_generator_lateness() {
        // Sent 30 µs late, served in 200 µs: the user waited 230 µs.
        let l = due_time_latency_s(1.0, 1.000_030, 0.000_200);
        assert!((l - 0.000_230).abs() < 1e-12, "{l}");
        // On time: only the engine span counts.
        assert_eq!(due_time_latency_s(2.0, 2.0, 0.000_1), 0.000_1);
        // A send before the due time is not a negative wait.
        assert_eq!(due_time_latency_s(3.0, 2.9, 0.000_1), 0.000_1);
    }

    #[test]
    fn batch_mean_counts_batches_not_requests() {
        // One batch of 4 and one of 1: five requests, two batches.
        let sizes = [4, 4, 4, 4, 1];
        assert!((batch_mean_from_requests(sizes) - 2.5).abs() < 1e-12);
        assert_eq!(batch_mean_from_requests(std::iter::empty()), 0.0);
    }
}
