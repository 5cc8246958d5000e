//! Log-bucketed (HDR-style) histogram over `u64` values.
//!
//! Buckets are exact below `2^SUB_BITS` and log-linear above: each octave
//! `[2^k, 2^{k+1})` is split into `2^SUB_BITS` equal-width sub-buckets,
//! bounding the relative quantization error at `2^-SUB_BITS` (~3% for the
//! default of 5) across the full 64-bit range. Counts are exact integers,
//! so merging histograms is associative, commutative and order-independent
//! — the property the deterministic sweep merge relies on (and that the
//! crate's proptests pin down).

use serde::{Serialize, Value};

/// Sub-bucket resolution: `2^SUB_BITS` sub-buckets per octave.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// A dense log-linear histogram of `u64` observations.
///
/// The backing vector grows lazily to the highest bucket touched; two
/// histograms holding the same observations in any order (or merged from
/// any partition of them) compare equal.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value.
    fn index(v: u64) -> usize {
        if v < SUB {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let shift = msb - SUB_BITS;
            (((shift + 1) << SUB_BITS) + ((v >> shift) as u32) - SUB as u32) as usize
        }
    }

    /// Inclusive lower bound of a bucket.
    fn lower_bound(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB {
            idx
        } else {
            let seg = idx >> SUB_BITS;
            let off = idx & (SUB - 1);
            (SUB + off) << (seg - 1)
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        let idx = Self::index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Forget every observation.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Fold another histogram into this one (bucket-wise integer sums).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (exact, not quantized).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the observations (exact sum / count).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the bucket holding the `q`-quantile observation
    /// (`0 < q <= 1`); 0 when empty. Deterministic: nearest-rank on the
    /// cumulative bucket counts.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower_bound(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::lower_bound(i), c))
            .collect()
    }
}

impl Serialize for LogHistogram {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".into(), Value::UInt(self.count)),
            ("min".into(), Value::UInt(self.min())),
            ("max".into(), Value::UInt(self.max)),
            ("mean".into(), Value::Float(self.mean())),
            ("p50".into(), Value::UInt(self.quantile(0.50))),
            ("p90".into(), Value::UInt(self.quantile(0.90))),
            ("p99".into(), Value::UInt(self.quantile(0.99))),
            (
                "buckets".into(),
                Value::Array(
                    self.buckets()
                        .into_iter()
                        .map(|(lo, c)| Value::Array(vec![Value::UInt(lo), Value::UInt(c)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Scalar summary of a delay histogram, in milliseconds — the shape
/// end-of-run [`Report`](../../eac/metrics/struct.Report.html)s embed.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Minimum, ms.
    pub min_ms: f64,
    /// Median, ms.
    pub p50_ms: f64,
    /// 90th percentile, ms.
    pub p90_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Maximum, ms.
    pub max_ms: f64,
}

impl HistSummary {
    /// Summarize a histogram whose observations are nanoseconds.
    pub fn from_nanos(h: &LogHistogram) -> HistSummary {
        let ms = |v: u64| v as f64 / 1e6;
        HistSummary {
            count: h.count(),
            min_ms: ms(h.min()),
            p50_ms: ms(h.quantile(0.50)),
            p90_ms: ms(h.quantile(0.90)),
            p99_ms: ms(h.quantile(0.99)),
            max_ms: ms(h.max()),
        }
    }

    /// Mean of several summaries: counts sum, quantiles average (an
    /// approximation — quantiles do not compose exactly across runs, but
    /// the per-seed histograms are already summarized by the time reports
    /// are averaged).
    pub fn average(all: &[&HistSummary]) -> HistSummary {
        if all.is_empty() {
            return HistSummary::default();
        }
        let n = all.len() as f64;
        HistSummary {
            count: all.iter().map(|s| s.count).sum(),
            min_ms: all.iter().map(|s| s.min_ms).sum::<f64>() / n,
            p50_ms: all.iter().map(|s| s.p50_ms).sum::<f64>() / n,
            p90_ms: all.iter().map(|s| s.p90_ms).sum::<f64>() / n,
            p99_ms: all.iter().map(|s| s.p99_ms).sum::<f64>() / n,
            max_ms: all.iter().map(|s| s.max_ms).sum::<f64>() / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_lower_bound_roundtrip() {
        for v in (0..2048u64).chain([4097, 1 << 20, (1 << 20) + 12345, u64::MAX / 2, u64::MAX]) {
            let idx = LogHistogram::index(v);
            let lo = LogHistogram::lower_bound(idx);
            assert!(lo <= v, "lower bound {lo} above value {v}");
            // The next bucket starts above v (widened to u128: the bound
            // of the very last bucket exceeds u64).
            let next = (idx + 1) as u128;
            let next_lo = if next < SUB as u128 {
                next
            } else {
                let (seg, off) = (next >> SUB_BITS, next & (SUB as u128 - 1));
                (SUB as u128 + off) << (seg - 1)
            };
            assert!(next_lo > v as u128, "next bucket {next_lo} not above {v}");
            // Relative quantization error bounded by 2^-SUB_BITS.
            if v >= SUB {
                assert!((v - lo) as f64 / v as f64 <= 1.0 / SUB as f64);
            } else {
                assert_eq!(lo, v);
            }
        }
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1000);
        assert_eq!(h.max(), 1_000_000);
        let (p50, p90, p99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99 && p99 <= h.max());
        // Nearest-rank p50 of 1k..=1M uniform: ~500k, within bucket error.
        assert!((p50 as f64 - 500_000.0).abs() / 500_000.0 < 0.05, "{p50}");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let values_a = [1u64, 5, 900, 1 << 30];
        let values_b = [0u64, 5, 77, 1 << 40];
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for v in values_a {
            a.record(v);
            whole.record(v);
        }
        for v in values_b {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn summary_average_sums_counts() {
        let mut h = LogHistogram::new();
        h.record(2_000_000); // 2 ms
        let s = HistSummary::from_nanos(&h);
        assert_eq!(s.count, 1);
        assert!((s.max_ms - 2.0).abs() < 1e-9);
        let avg = HistSummary::average(&[&s, &s]);
        assert_eq!(avg.count, 2);
        assert!((avg.p50_ms - s.p50_ms).abs() < 1e-9);
    }
}
