//! Property tests for the telemetry histogram against the eval runner's
//! exact percentile machinery.
//!
//! The serving daemon reports latency quantiles from
//! [`rkranks_core::Histogram`] — a lock-free log-linear sketch — while
//! offline eval reports them from the full sorted sample
//! ([`LatencyPercentiles::from_samples`]). These tests pin down the
//! contract between the two: the sketch's quantile estimate always
//! brackets the exact order statistic from above within the structural
//! `1/32` relative-error bound (32 linear sub-buckets per octave), so a
//! dashboard reading `rkrd_query_seconds` p99 and a benchmark reading
//! `BatchOutcome::latency_percentiles` p99 can disagree by at most
//! ~3.1% plus one raw unit — never by a bucket artifact. Values past the
//! top octave land in one overflow bucket that reports `u64::MAX` rather
//! than a fabricated bound.

use proptest::prelude::*;
use rkranks_core::Histogram;
use rkranks_eval::runner::LatencyPercentiles;

/// The sketch's structural relative-error bound: 32 sub-buckets per
/// octave, plus one raw unit of slack for the integer bucket edges.
const REL_ERR: f64 = 1.0 / 32.0;

/// Exact order statistic at quantile `q` (rank `ceil(q·n)`, 1-indexed),
/// matching the histogram's rank convention.
fn exact_order_stat(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples below the overflow octave (`2^40`), where the relative-error
/// guarantee holds. Sizes span lone samples to mid-size batches; values
/// span sub-microsecond to ~18-minute latencies in nanoseconds.
fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..(1u64 << 40), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every quantile the daemon reports, the sketch estimate sits
    /// between the exact order statistic and the `1/32` bound above it —
    /// and therefore within the same envelope around the eval runner's
    /// interpolated percentile.
    #[test]
    fn quantiles_bracket_the_exact_order_statistics(samples in arb_samples()) {
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let scale = 1e-9;
        let seconds: Vec<f64> = samples.iter().map(|&v| v as f64 * scale).collect();
        let p = LatencyPercentiles::from_samples(&seconds);
        let snap = h.snapshot(1.0);
        for (q, interp) in [(0.50, p.p50), (0.95, p.p95), (0.99, p.p99)] {
            let exact = exact_order_stat(&sorted, q);
            let est = snap.quantile(q);
            prop_assert!(est >= exact, "q={q}: estimate {est} below exact {exact}");
            prop_assert!(
                est as f64 <= exact as f64 * (1.0 + REL_ERR) + 1.0,
                "q={q}: estimate {est} overshoots exact {exact} past the 1/32 bound"
            );
            // The interpolated percentile never exceeds the next order
            // statistic, so the sketch stays inside the same envelope.
            let est_s = est as f64 * scale;
            let exact_s = exact as f64 * scale;
            prop_assert!(est_s >= interp.min(exact_s) - f64::EPSILON);
            prop_assert!(
                est_s <= interp.max(exact_s) * (1.0 + REL_ERR) + 2.0 * scale,
                "q={q}: {est_s} vs interpolated {interp} / exact {exact_s}"
            );
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    /// Values at or past the top octave share the overflow bucket: they
    /// are counted and summed exactly, and any quantile that lands there
    /// reports `u64::MAX` — an explicit "off the scale", never a
    /// plausible-looking fabricated latency.
    #[test]
    fn overflow_values_are_counted_but_never_invent_a_bound(
        small in proptest::collection::vec(0u64..1000, 0..20),
        big in proptest::collection::vec((1u64 << 40)..(1u64 << 50), 1..20),
    ) {
        let h = Histogram::new();
        for &v in small.iter().chain(&big) {
            h.record(v);
        }
        prop_assert_eq!(h.count(), (small.len() + big.len()) as u64);
        let snap = h.snapshot(1.0);
        prop_assert_eq!(snap.quantile(1.0), u64::MAX, "the max always lands in overflow");
        let (last_upper, overflow_count) = *snap.buckets.last().unwrap();
        prop_assert_eq!(last_upper, u64::MAX);
        prop_assert_eq!(overflow_count, big.len() as u64);
    }
}
