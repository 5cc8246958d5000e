//! Property-based tests of the traffic sources and policers.

use proptest::prelude::*;
use simcore::{SimDuration, SimRng, SimTime};
use traffic::{OnOff, PacketProcess, PeriodDist, Policer, SourceSpec, TokenBucketSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On/off sources hit their declared long-run average rate for
    /// arbitrary (burst rate, duty cycle) combinations.
    #[test]
    fn onoff_long_run_rate(
        seed in any::<u64>(),
        burst_kbps in 64u32..2_048,
        on_ms in 50u32..2_000,
        off_ms in 50u32..2_000,
    ) {
        let burst = burst_kbps as f64 * 1_000.0;
        let (on, off) = (on_ms as f64 / 1_000.0, off_ms as f64 / 1_000.0);
        let mut src = OnOff::new(burst, on, off, PeriodDist::Exponential, 125);
        let mut rng = SimRng::new(seed);
        let horizon = 2_000.0;
        let mut t = 0.0;
        let mut bytes = 0u64;
        loop {
            let (gap, size) = src.next_packet(&mut rng);
            t += gap.as_secs_f64();
            if t > horizon {
                break;
            }
            bytes += size as u64;
        }
        let rate = bytes as f64 * 8.0 / horizon;
        let expect = src.avg_rate_bps();
        prop_assert!(
            (rate - expect).abs() / expect < 0.15,
            "measured {rate} vs declared {expect}"
        );
    }

    /// Gaps are never negative and sizes match the configured packet size.
    #[test]
    fn onoff_emissions_well_formed(seed in any::<u64>(), pkt in 40u32..1500) {
        let mut src = OnOff::new(256_000.0, 0.5, 0.5, PeriodDist::Pareto(1.2), pkt);
        let mut rng = SimRng::new(seed);
        for _ in 0..1_000 {
            let (gap, size) = src.next_packet(&mut rng);
            prop_assert!(gap.as_secs_f64() >= 0.0);
            prop_assert_eq!(size, pkt);
        }
    }

    /// A constant-rate feed through a policer at its own rate never
    /// drops (given one packet of slack for nanosecond rounding).
    #[test]
    fn cbr_conforms_to_own_bucket(rate_kbps in 64u32..4_096, pkt in 64u32..1_000) {
        let rate = rate_kbps as u64 * 1_000;
        let gap = SimDuration::from_secs_f64(pkt as f64 * 8.0 / rate as f64);
        let mut p = Policer::new(TokenBucketSpec::new(rate, 2.0 * pkt as f64));
        let mut t = SimTime::ZERO;
        for _ in 0..5_000 {
            t += gap;
            prop_assert!(p.conforms(pkt, t));
        }
    }

    /// A policer's accepted volume respects the (r, b) envelope for any
    /// offered pattern.
    #[test]
    fn policer_envelope(
        rate_kbps in 64u32..4_096,
        bucket in 200f64..50_000.0,
        offers in prop::collection::vec((0u64..200_000u64, 40u32..1500), 1..300),
    ) {
        let rate = rate_kbps as u64 * 1_000;
        let mut p = Policer::new(TokenBucketSpec::new(rate, bucket));
        let mut t = SimTime::ZERO;
        let mut accepted = 0u64;
        let mut offered = 0u64;
        for (gap_us, size) in offers {
            t += simcore::SimDuration::from_micros(gap_us);
            if size as f64 <= bucket {
                offered += 1;
                if p.conforms(size, t) {
                    accepted += size as u64;
                }
            }
        }
        let envelope = bucket + rate as f64 / 8.0 * t.as_secs_f64() + 1.0;
        prop_assert!(accepted as f64 <= envelope);
        // Every packet offered is either passed or dropped, once.
        prop_assert_eq!(p.passed() + p.dropped(), offered);
    }

    /// Every Table 1 preset builds a process whose first emissions carry
    /// the spec's packet size, and declares a positive token rate.
    #[test]
    fn specs_are_consistent(seed in any::<u64>()) {
        for spec in [
            SourceSpec::exp1(),
            SourceSpec::exp2(),
            SourceSpec::exp3(),
            SourceSpec::exp4(),
            SourceSpec::poo1(),
            SourceSpec::starwars(),
        ] {
            let mut proc = spec.build();
            let mut rng = SimRng::new(seed);
            let (gap, size) = proc.next_packet(&mut rng);
            prop_assert!(gap.as_secs_f64() >= 0.0);
            prop_assert_eq!(size, spec.pkt_bytes);
            prop_assert!(spec.token_rate_bps() > 0);
            prop_assert!(spec.avg_rate_bps() > 0.0);
            // Declared average never exceeds the token (peak) rate.
            prop_assert!(spec.avg_rate_bps() <= spec.token_rate_bps() as f64 + 1e-9);
        }
    }
}
