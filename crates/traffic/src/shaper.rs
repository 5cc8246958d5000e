//! Token-bucket policing.
//!
//! Hosts "must characterize their flows as conforming to an (r, b) token
//! bucket" (§3.1). The policer drops non-conforming packets — the paper
//! reshapes the video trace "by dropping" — and is also used in tests to
//! verify that the Table 1 sources conform to their declared buckets.

use netsim::TokenBucket;
use simcore::SimTime;

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

/// A policer that drops non-conforming packets.
#[derive(Clone, Debug)]
pub struct Policer {
    bucket: TokenBucket,
    conformant: u64,
    dropped: u64,
}

impl Policer {
    /// A policer for the given descriptor (bucket starts full).
    pub fn new(spec: TokenBucketSpec) -> Self {
        Policer {
            bucket: TokenBucket::new(spec.rate_bps, spec.bucket_bytes),
            conformant: 0,
            dropped: 0,
        }
    }

    /// Offer a packet of `bytes` at time `now`; true if it conforms (and
    /// the tokens are consumed), false if it must be dropped.
    pub fn conforms(&mut self, bytes: u32, now: SimTime) -> bool {
        if self.bucket.try_take(bytes, now) {
            self.conformant += 1;
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    /// Packets passed so far.
    pub fn passed(&self) -> u64 {
        self.conformant
    }

    /// Packets dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{OnOff, PacketProcess, PeriodDist};
    use simcore::{SimDuration, SimRng};

    #[test]
    fn conforming_cbr_never_dropped() {
        // 125-byte packets at exactly the 256 kbps token rate conform.
        let mut p = Policer::new(TokenBucketSpec::new(256_000, 125.0));
        let gap = SimDuration::from_nanos(3_906_250); // 1000 bits at 256 kbps
        let mut t = SimTime::ZERO;
        for _ in 0..10_000 {
            t += gap;
            assert!(p.conforms(125, t));
        }
        assert_eq!(p.dropped(), 0);
    }

    #[test]
    fn oversubscribed_cbr_dropped_proportionally() {
        // 125-byte packets at twice the 128 kbps token rate: ~half the
        // packets must drop.
        let mut p = Policer::new(TokenBucketSpec::new(128_000, 125.0));
        let gap = SimDuration::from_nanos(3_906_250); // 1000 bits at 256 kbps
        let mut t = SimTime::ZERO;
        let n = 20_000;
        for _ in 0..n {
            t += gap;
            p.conforms(125, t);
        }
        let frac = p.dropped() as f64 / n as f64;
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
            let mut p = Policer::new(TokenBucketSpec::new(burst as u64, 250.0));
            let mut rng = SimRng::new(100 + i as u64);
            let mut t = SimTime::ZERO;
            for _ in 0..50_000 {
                let (gap, size) = src.next_packet(&mut rng);
                t += gap;
                assert!(
                    p.conforms(size, t),
                    "source {i} violated its bucket at {t:?}"
                );
            }
        }
    }

    #[test]
    fn bucket_absorbs_bursts_up_to_depth() {
        // b = 1000 bytes allows an 8-packet back-to-back burst of 125 B.
        let mut p = Policer::new(TokenBucketSpec::new(8_000, 1_000.0));
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        for i in 0..8 {
            assert!(p.conforms(125, t), "packet {i}");
        }
        assert!(!p.conforms(125, t));
    }
}
