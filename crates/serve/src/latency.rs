//! Latency summaries — the SLO-accounting vocabulary of the serving
//! engine and the fabric, reused by `metis_core::deploy` for its
//! per-decision measurements.
//!
//! Served latencies are stored in one place: the engine's per-width
//! [`metis_telemetry::LogSketch`]es, which the fabric merges bucket-wise
//! into per-scenario, per-tenant and fabric-wide views
//! ([`SketchSnapshot::merged`]). [`LatencySummary::from_sketch`] reads a
//! sketch; [`summarize`] and [`summarize_sorted`] are the exact oracle
//! over raw samples.

use metis_telemetry::SketchSnapshot;
use serde::{Deserialize, Serialize};

/// Percentile summary of a latency sample set (seconds). Percentiles use
/// the floor-index convention (`samples[floor(p/100 * (len-1))]` of the
/// sorted samples) so they match the historical `deploy::measure_latency`
/// numbers exactly.
///
/// A summary read from a sketch ([`LatencySummary::from_sketch`], every
/// engine and fabric report) means:
///
/// * `count` is exact and includes NaN spans;
/// * `p50_s`, `p95_s`, `p99_s` and `max_s` are sketch quantiles at the
///   same floor-index rank: the upper edge of the bucket holding that
///   order statistic, so `exact ≤ reported ≤ exact · γ`
///   (`γ = 2^(1/8)`, +9.05%). Spans at or below ≈ 92 ns read 0.0 (an
///   absolute error under 1.2e-7 s) and spans above 1024 s read 1024 s;
/// * `mean_s` is the sketch's mass over its finite samples
///   ([`SketchSnapshot::mass_s`] / `total`), an upper bound within γ;
/// * a NaN span makes `p99_s` and `max_s` NaN, so
///   [`LatencySummary::meets_p99_slo`] fails: NaN poisons the tail.
///
/// So an SLO pass guarantees the exact p99 is within budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    pub count: usize,
    pub mean_s: f64,
    pub p50_s: f64,
    pub p95_s: f64,
    pub p99_s: f64,
    pub max_s: f64,
}

impl LatencySummary {
    /// The all-zero summary of an empty sample set.
    pub fn empty() -> Self {
        LatencySummary {
            count: 0,
            mean_s: 0.0,
            p50_s: 0.0,
            p95_s: 0.0,
            p99_s: 0.0,
            max_s: 0.0,
        }
    }

    /// Summary of a sketch's contents (see the type docs for what each
    /// field then bounds).
    pub fn from_sketch(sketch: &SketchSnapshot) -> Self {
        let count = (sketch.total + sketch.invalid) as usize;
        if count == 0 {
            return LatencySummary::empty();
        }
        let pct = |p: f64| sketch.quantile(p / 100.0).unwrap_or(f64::NAN);
        let tail = |p: f64| if sketch.invalid > 0 { f64::NAN } else { pct(p) };
        LatencySummary {
            count,
            mean_s: sketch.mass_s() / sketch.total as f64,
            p50_s: pct(50.0),
            p95_s: pct(95.0),
            p99_s: tail(99.0),
            max_s: tail(100.0),
        }
    }

    /// True when `p99 <= budget_s` — the serving SLO check.
    pub fn meets_p99_slo(&self, budget_s: f64) -> bool {
        self.count > 0 && self.p99_s <= budget_s
    }
}

/// Summarize a latency sample set (seconds). Sorts a copy; NaN samples
/// order last via `total_cmp`, so a poisoned sample inflates the tail
/// percentiles instead of silently vanishing.
pub fn summarize(samples: &[f64]) -> LatencySummary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    summarize_sorted(&sorted)
}

/// [`summarize`] over samples the caller already sorted (`total_cmp`
/// order) — skips the copy and re-sort.
pub fn summarize_sorted(sorted: &[f64]) -> LatencySummary {
    if sorted.is_empty() {
        return LatencySummary::empty();
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
        "summarize_sorted: samples not in total_cmp order"
    );
    let pct =
        |p: f64| sorted[((p / 100.0 * (sorted.len() - 1) as f64) as usize).min(sorted.len() - 1)];
    LatencySummary {
        count: sorted.len(),
        mean_s: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50_s: pct(50.0),
        p95_s: pct(95.0),
        p99_s: pct(99.0),
        max_s: *sorted.last().unwrap(),
    }
}

/// The span between two [`crate::Clock`] readings (seconds): a submit
/// stamp and a completion stamp from the same clock, real or virtual.
///
/// A completion stamp earlier than its submit stamp is a caller bug
/// (stamps from two different clocks, or a rewound time source): it
/// trips a debug assertion, and in release builds the span **clamps to
/// zero** rather than recording negative latency, which would deflate
/// the mean and the low percentiles of every summary downstream. NaN
/// stamps pass through unclamped (`NaN < 0.0` is false), so a NaN span
/// still poisons the tail.
pub(crate) fn span_s(submitted_s: f64, completed_s: f64) -> f64 {
    let raw_s = completed_s - submitted_s;
    debug_assert!(
        raw_s >= 0.0 || raw_s.is_nan(),
        "span_s: completion stamp {completed_s} earlier than submit stamp {submitted_s}"
    );
    if raw_s < 0.0 {
        0.0
    } else {
        raw_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_telemetry::{LogSketch, GAMMA};

    fn sketch_of(samples: &[f64]) -> SketchSnapshot {
        let sketch = LogSketch::new();
        sketch.record_all(samples);
        sketch.snapshot()
    }

    #[test]
    fn empty_sets_summarize_to_zero() {
        assert_eq!(summarize(&[]), LatencySummary::empty());
        let empty = LatencySummary::from_sketch(&SketchSnapshot::default());
        assert_eq!(empty, LatencySummary::empty());
        assert!(!empty.meets_p99_slo(1.0), "empty set meets no SLO");
    }

    #[test]
    fn percentiles_follow_floor_index_convention() {
        // 0..100 ms: p50 floor-index = samples[49], p99 = samples[98].
        let samples: Vec<f64> = (0..100).map(|i| i as f64 * 1e-3).collect();
        let s = summarize(&samples);
        assert_eq!(s.count, 100);
        assert!((s.p50_s - 0.049).abs() < 1e-12, "p50 {}", s.p50_s);
        assert!((s.p95_s - 0.094).abs() < 1e-12, "p95 {}", s.p95_s);
        assert!((s.p99_s - 0.098).abs() < 1e-12, "p99 {}", s.p99_s);
        assert!((s.max_s - 0.099).abs() < 1e-12);
        assert!((s.mean_s - 0.0495).abs() < 1e-12);
    }

    /// The sketch summary brackets the exact oracle field by field:
    /// count exact, quantiles and mean in `[exact, exact · γ]` (the 0 ms
    /// sample underflows to 0.0, which the exact p0 is too).
    #[test]
    fn sketch_summary_brackets_the_exact_summary() {
        let samples: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin().abs() * 1e-3)
            .collect();
        let exact = summarize(&samples);
        let approx = LatencySummary::from_sketch(&sketch_of(&samples));
        assert_eq!(approx.count, exact.count);
        for (got, want) in [
            (approx.mean_s, exact.mean_s),
            (approx.p50_s, exact.p50_s),
            (approx.p95_s, exact.p95_s),
            (approx.p99_s, exact.p99_s),
            (approx.max_s, exact.max_s),
        ] {
            assert!(
                want <= got && got <= want * GAMMA,
                "{got} not in [{want}, {}]",
                want * GAMMA
            );
        }
        // Single sample: every quantile is that sample's bucket edge.
        let one = LatencySummary::from_sketch(&sketch_of(&[0.5]));
        assert_eq!(one.count, 1);
        assert_eq!(one.p50_s, one.max_s);
        assert!((0.5..=0.5 * GAMMA).contains(&one.p99_s));
    }

    #[test]
    fn slo_check_uses_p99() {
        // 4 samples: p99 floor-index = 2 -> 0.002 (the max stays separate).
        let s = summarize(&[0.001, 0.001, 0.002, 0.010]);
        assert!((s.p99_s - 0.002).abs() < 1e-12);
        assert!(s.meets_p99_slo(0.002));
        assert!(!s.meets_p99_slo(0.001));
        assert!((s.max_s - 0.010).abs() < 1e-12);
        // The sketch reads the same rank, rounded up to its bucket edge.
        let approx = LatencySummary::from_sketch(&sketch_of(&[0.001, 0.001, 0.002, 0.010]));
        assert!(approx.meets_p99_slo(0.002 * GAMMA));
        assert!(!approx.meets_p99_slo(0.001 * GAMMA));
    }

    #[test]
    fn nan_samples_inflate_the_tail_not_vanish() {
        let s = summarize(&[0.001, f64::NAN, 0.002]);
        assert_eq!(s.count, 3);
        assert!(s.max_s.is_nan(), "NaN must surface in max");
        // One NaN in a thousand still poisons the sketch summary's tail.
        let mut samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-6).collect();
        samples.push(f64::NAN);
        let approx = LatencySummary::from_sketch(&sketch_of(&samples));
        assert_eq!(approx.count, 1001, "count includes the NaN span");
        assert!(approx.p99_s.is_nan() && approx.max_s.is_nan());
        assert!(!approx.meets_p99_slo(f64::INFINITY));
        assert!(approx.p50_s <= 501e-6 * GAMMA, "the body stays readable");
    }

    #[test]
    fn single_sample_summary() {
        let s = summarize(&[0.5]);
        assert_eq!(s.p50_s, 0.5);
        assert_eq!(s.p99_s, 0.5);
        assert_eq!(s.max_s, 0.5);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn span_subtracts_clock_readings() {
        assert_eq!(span_s(1.5, 4.0), 2.5);
        assert_eq!(span_s(3.0, 3.0), 0.0);
    }

    /// Debug builds reject a completion stamp earlier than its submit
    /// stamp outright — the silent-negative-latency regression.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "earlier than submit stamp")]
    fn span_rejects_negative_spans_in_debug() {
        span_s(2.0, 1.0);
    }

    /// Release builds clamp the same bug to zero instead of deflating
    /// the summary with a negative sample.
    #[cfg(not(debug_assertions))]
    #[test]
    fn span_clamps_negative_spans_in_release() {
        assert_eq!(span_s(2.0, 1.0), 0.0);
    }

    #[test]
    fn span_passes_nan_through_unclamped() {
        let span = span_s(1.0, f64::NAN);
        assert!(span.is_nan());
        assert!(
            LatencySummary::from_sketch(&sketch_of(&[0.001, span]))
                .max_s
                .is_nan(),
            "NaN span must poison the tail"
        );
    }
}

#[cfg(test)]
mod summarize_order_props {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Field-wise bitwise equality — `PartialEq` would reject the
    /// NaN-poisoned summaries this property must also cover.
    fn assert_summary_bits(a: LatencySummary, b: LatencySummary) {
        assert_eq!(a.count, b.count);
        for (x, y, field) in [
            (a.mean_s, b.mean_s, "mean_s"),
            (a.p50_s, b.p50_s, "p50_s"),
            (a.p95_s, b.p95_s, "p95_s"),
            (a.p99_s, b.p99_s, "p99_s"),
            (a.max_s, b.max_s, "max_s"),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{field} diverges: {x} vs {y}");
        }
    }

    proptest! {
        /// `summarize(xs)` must equal `summarize_sorted` of the
        /// `total_cmp`-sorted samples, bit for bit, for **any** capture
        /// order — including NaN-salted sample sets, whose NaNs order
        /// last and inflate the tail identically on both paths.
        #[test]
        fn prop_summarize_is_order_independent(
            n in 1usize..120,
            shuffle_seed in 0u64..10_000,
            nan_every in 0usize..8,
        ) {
            let mut rng = StdRng::seed_from_u64(shuffle_seed ^ 0xA5A5);
            let mut samples: Vec<f64> = (0..n)
                .map(|k| {
                    if nan_every > 0 && k % (nan_every + 2) == nan_every {
                        f64::NAN
                    } else {
                        rng.gen_range(0.0..0.25)
                    }
                })
                .collect();
            // Deterministic Fisher–Yates shuffle into an arbitrary order.
            for i in (1..samples.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                samples.swap(i, j);
            }
            let via_unsorted = summarize(&samples);
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let via_sorted = summarize_sorted(&sorted);
            assert_summary_bits(via_unsorted, via_sorted);
            prop_assert_eq!(via_unsorted.count, n);
        }
    }
}
