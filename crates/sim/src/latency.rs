//! A mergeable log-bucketed latency histogram.
//!
//! Grew up in `neura_serve::telemetry` as the percentile state behind the
//! windowed serving timeline; it lives here in the simulation kernel so
//! the chip-level profiler can reuse the same mergeable state for hop and
//! DRAM-latency distributions without inverting the crate layering
//! (`neura_serve` sits *above* `neura_chip`). `neura_serve` re-exports it,
//! so existing callers are unaffected.

use std::collections::BTreeMap;

/// Mantissa bits that subdivide each power-of-two latency range into
/// `2^SUB_BUCKET_BITS` log-spaced histogram buckets.
pub const SUB_BUCKET_BITS: u32 = 7;

/// How far a bucket's index reaches into the float's bit pattern.
const BUCKET_SHIFT: u32 = 52 - SUB_BUCKET_BITS;

/// The histogram's proven relative error: a bucket covering `[lo, hi)`
/// has width `hi − lo = 2^(e − 7)` where `2^e ≤ lo`, so the bucket
/// midpoint sits within `2^(e − 8) ≤ value / 256` of any member value.
/// Holds for every normal value (all real latencies); values below
/// `f64::MIN_POSITIVE` collapse towards zero with absolute error under
/// `1e-307`.
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / 256.0;

/// A mergeable log-bucketed latency histogram.
///
/// Values map to buckets by truncating the `f64` bit pattern to its
/// exponent plus the top [`SUB_BUCKET_BITS`] mantissa bits — an
/// integer-only, platform-independent mapping that keeps bucket order
/// equal to value order. Percentiles are nearest-rank over the bucket
/// counts and report the bucket midpoint, which is provably within
/// [`RELATIVE_ERROR_BOUND`] of the exact-sort percentile.
/// [`Self::merge`] adds bucket counts, so the histogram of a
/// concatenated stream equals the merge of its parts' histograms —
/// the property windowed percentiles rely on. (Integers up to `2^(SUB_BUCKET_BITS + 1)` land
/// in distinct buckets and are reported exactly-ranked, which is why
/// the chip profiler can also feed it small integer counts like NoC hop
/// distances.)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    buckets: BTreeMap<u32, u64>,
    total: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// The bucket index of a non-negative finite value.
    fn bucket_of(value: f64) -> u32 {
        (value.to_bits() >> BUCKET_SHIFT) as u32
    }

    /// The midpoint of a bucket's value range (its reported percentile
    /// representative). Bucket 0 holds exact zeros and reports 0.
    fn representative(bucket: u32) -> f64 {
        if bucket == 0 {
            return 0.0;
        }
        let lower = f64::from_bits(u64::from(bucket) << BUCKET_SHIFT);
        let upper = f64::from_bits(u64::from(bucket + 1) << BUCKET_SHIFT);
        (lower + upper) / 2.0
    }

    /// Records one latency observation.
    ///
    /// # Panics
    ///
    /// Panics when `value` is negative or non-finite — a latency can be
    /// neither, so feeding one in is a caller bug worth failing loudly on.
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Records `count` observations of the same latency.
    ///
    /// # Panics
    ///
    /// As [`Self::record`].
    pub fn record_n(&mut self, value: f64, count: u64) {
        assert!(value >= 0.0 && value.is_finite(), "latency {value} is not a non-negative real");
        if count == 0 {
            return;
        }
        *self.buckets.entry(Self::bucket_of(value)).or_insert(0) += count;
        self.total += count;
    }

    /// Adds every bucket of `other` into `self` — exact, order-free, and
    /// equivalent to having recorded both streams into one histogram.
    pub fn merge(&mut self, other: &Self) {
        for (&bucket, &count) in &other.buckets {
            *self.buckets.entry(bucket).or_insert(0) += count;
        }
        self.total += other.total;
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Nearest-rank percentile (0 when empty), reported as the owning
    /// bucket's midpoint — within [`RELATIVE_ERROR_BOUND`] of the
    /// exact-sort percentile.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < pct ≤ 100`.
    pub fn percentile(&self, pct: f64) -> f64 {
        assert!(pct > 0.0 && pct <= 100.0, "percentile must be within (0, 100]");
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((pct / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (&bucket, &count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return Self::representative(bucket);
            }
        }
        unreachable!("cumulative bucket counts reach the total")
    }

    /// Several percentiles (each as [`Self::percentile`]).
    pub fn percentiles(&self, pcts: &[f64]) -> Vec<f64> {
        pcts.iter().map(|&pct| self.percentile(pct)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank percentile by sorting, the histogram's ground
    /// truth.
    fn exact_percentile(values: &[f64], pct: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// A deterministic pseudo-random latency stream spanning five orders
    /// of magnitude (SplitMix64 steps, no external RNG).
    fn latencies(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let unit = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
                1e-4 * (10.0f64).powf(unit * 5.0)
            })
            .collect()
    }

    #[test]
    fn percentiles_sit_within_the_relative_error_bound() {
        for seed in [1, 7, 42] {
            let values = latencies(seed, 2_000);
            let mut histogram = LatencyHistogram::new();
            for &v in &values {
                histogram.record(v);
            }
            assert_eq!(histogram.count(), values.len() as u64);
            for pct in [10.0, 50.0, 90.0, 99.0, 100.0] {
                let exact = exact_percentile(&values, pct);
                let approx = histogram.percentile(pct);
                assert!(
                    (approx - exact).abs() <= exact * RELATIVE_ERROR_BOUND,
                    "p{pct}: histogram {approx} vs exact {exact} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn merge_of_split_streams_equals_the_concatenated_histogram() {
        let values = latencies(99, 1_501);
        for split in [0, 1, 750, 1_500, 1_501] {
            let mut left = LatencyHistogram::new();
            let mut right = LatencyHistogram::new();
            for &v in &values[..split] {
                left.record(v);
            }
            for &v in &values[split..] {
                right.record(v);
            }
            let mut whole = LatencyHistogram::new();
            for &v in &values {
                whole.record(v);
            }
            left.merge(&right);
            assert_eq!(left, whole, "merge at {split} diverges from the concatenated stream");
        }
    }

    #[test]
    fn empty_and_zero_behave() {
        let mut histogram = LatencyHistogram::new();
        assert!(histogram.is_empty());
        assert_eq!(histogram.percentile(99.0), 0.0);
        histogram.record_n(0.0, 3);
        assert_eq!(histogram.percentile(50.0), 0.0, "exact zeros report zero");
        histogram.record(1.0);
        assert_eq!(histogram.count(), 4);
        assert!(histogram.percentile(100.0) > 0.9);
    }

    #[test]
    #[should_panic(expected = "not a non-negative real")]
    fn negative_latencies_are_rejected() {
        LatencyHistogram::new().record(-1.0);
    }

    #[test]
    fn bucket_order_matches_value_order() {
        let values = latencies(5, 300);
        for pair in values.windows(2) {
            let (a, b) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            assert!(LatencyHistogram::bucket_of(a) <= LatencyHistogram::bucket_of(b));
        }
    }

    #[test]
    fn small_integers_rank_exactly() {
        // Hop counts and queue depths are small integers; each one gets
        // its own bucket, so percentiles over them are exact ranks.
        let mut histogram = LatencyHistogram::new();
        for hops in 0..=16u64 {
            histogram.record_n(hops as f64, hops + 1);
        }
        assert_eq!(histogram.percentile(100.0).round() as u64, 16);
        for hops in 1..=16u64 {
            // Aim mid-rank (rank − ½) so the pct → rank round trip cannot
            // drift across a bucket boundary by a floating-point ulp.
            let rank: u64 = (0..=hops).map(|h| h + 1).sum();
            let pct = (rank as f64 - 0.5) / histogram.count() as f64 * 100.0;
            assert_eq!(histogram.percentile(pct).round() as u64, hops);
        }
    }
}
