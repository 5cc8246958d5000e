//! Token-bucket policing.
//!
//! Hosts "must characterize their flows as conforming to an (r, b) token
//! bucket" (§3.1). A host polices each admitted flow with a
//! [`TokenBucket`] built from its [`TokenBucketSpec`] and drops the
//! packets [`TokenBucket::try_take`] refuses — the paper reshapes the video
//! trace "by dropping". Tests use the same bucket to verify that the
//! Table 1 sources conform to their declared buckets.

use simcore::SimTime;

/// A token bucket, tracked in *bytes* with nanosecond-exact accrual.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_bps: u64,
    depth_bytes: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A bucket that refills at `rate_bps` and holds at most `depth_bytes`,
    /// starting full.
    pub fn new(rate_bps: u64, depth_bytes: f64) -> Self {
        assert!(rate_bps > 0 && depth_bytes > 0.0);
        TokenBucket {
            rate_bps,
            depth_bytes,
            tokens: depth_bytes,
            last: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_bps as f64 / 8.0).min(self.depth_bytes);
        self.last = now;
    }

    /// Try to spend `bytes` tokens; returns true on success.
    pub fn try_take(&mut self, bytes: u32, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens + 1e-9 >= bytes as f64 {
            self.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }
}

/// A (rate, bucket) traffic descriptor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TokenBucketSpec {
    /// Token rate, bits/second.
    pub rate_bps: u64,
    /// Bucket depth, bytes.
    pub bucket_bytes: f64,
}

impl TokenBucketSpec {
    /// Construct a descriptor.
    pub fn new(rate_bps: u64, bucket_bytes: f64) -> Self {
        assert!(rate_bps > 0 && bucket_bytes > 0.0);
        TokenBucketSpec {
            rate_bps,
            bucket_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{OnOff, PacketProcess, PeriodDist};
    use simcore::{SimDuration, SimRng};

    #[test]
    fn token_bucket_accrues_and_caps() {
        let mut tb = TokenBucket::new(8_000, 1_000.0); // 1000 B/s refill, 1000 B depth
        let t0 = SimTime::ZERO;
        assert!(tb.try_take(1_000, t0)); // starts full
        assert!(!tb.try_take(100, t0));
        let t1 = t0 + SimDuration::from_millis(100); // +100 B
        assert!(tb.try_take(100, t1));
        // Far future: capped at depth, not unbounded.
        let t2 = t1 + SimDuration::from_secs(1_000);
        assert!(tb.try_take(1_000, t2));
        assert!(!tb.try_take(1, t2));
    }

    #[test]
    fn conforming_cbr_never_dropped() {
        // 125-byte packets at exactly the 256 kbps token rate conform.
        let mut tb = TokenBucket::new(256_000, 125.0);
        let gap = SimDuration::from_nanos(3_906_250); // 1000 bits at 256 kbps
        let mut t = SimTime::ZERO;
        for _ in 0..10_000 {
            t += gap;
            assert!(tb.try_take(125, t));
        }
    }

    #[test]
    fn oversubscribed_cbr_dropped_proportionally() {
        // 125-byte packets at twice the 128 kbps token rate: ~half the
        // packets must drop.
        let mut tb = TokenBucket::new(128_000, 125.0);
        let gap = SimDuration::from_nanos(3_906_250); // 1000 bits at 256 kbps
        let mut t = SimTime::ZERO;
        let n = 20_000;
        let mut dropped = 0;
        for _ in 0..n {
            t += gap;
            if !tb.try_take(125, t) {
                dropped += 1;
            }
        }
        let frac = dropped as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "drop fraction {frac}");
    }

    #[test]
    fn table1_sources_conform_to_declared_bucket() {
        // Table 1: each on/off source conforms to (r = burst rate,
        // b = 125 bytes).
        let cases: [(f64, f64, f64, PeriodDist); 4] = [
            (256_000.0, 0.5, 0.5, PeriodDist::Exponential), // EXP1
            (1_024_000.0, 0.125, 0.875, PeriodDist::Exponential), // EXP2
            (512_000.0, 0.5, 0.5, PeriodDist::Exponential), // EXP3
            (256_000.0, 5.0, 5.0, PeriodDist::Exponential), // EXP4
        ];
        for (i, (burst, on, off, dist)) in cases.into_iter().enumerate() {
            let mut src = OnOff::new(burst, on, off, dist, 125);
            // Tiny slack (1 packet) absorbs nanosecond rounding of gaps.
            let mut tb = TokenBucket::new(burst as u64, 250.0);
            let mut rng = SimRng::new(100 + i as u64);
            let mut t = SimTime::ZERO;
            for _ in 0..50_000 {
                let (gap, size) = src.next_packet(&mut rng);
                t += gap;
                assert!(
                    tb.try_take(size, t),
                    "source {i} violated its bucket at {t:?}"
                );
            }
        }
    }

    #[test]
    fn bucket_absorbs_bursts_up_to_depth() {
        // b = 1000 bytes allows an 8-packet back-to-back burst of 125 B.
        let mut tb = TokenBucket::new(8_000, 1_000.0);
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        for i in 0..8 {
            assert!(tb.try_take(125, t), "packet {i}");
        }
        assert!(!tb.try_take(125, t));
    }
}
