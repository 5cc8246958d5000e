//! Packet emission processes.
//!
//! A [`PacketProcess`] is a pull-based generator: each call yields the gap
//! to the next packet and that packet's size. Host agents turn these into
//! timer-driven packet emissions. Keeping sources pure (no agent plumbing)
//! makes their statistics directly testable.

use simcore::{SimDuration, SimRng};

/// A stream of packets described by inter-emission gaps.
pub trait PacketProcess: Send {
    /// Gap from the previous emission to the next packet, and its size in
    /// bytes.
    fn next_packet(&mut self, rng: &mut SimRng) -> (SimDuration, u32);

    /// The long-run average rate of this process, bits/second (used for
    /// sanity checks and MBAC bookkeeping, not by the generator itself).
    fn avg_rate_bps(&self) -> f64;
}

/// Distribution family for on/off period lengths.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PeriodDist {
    /// Exponential periods (the EXP sources of Table 1).
    Exponential,
    /// Pareto periods with this shape α (the POO1 source, α = 1.2);
    /// produces LRD traffic in the aggregate.
    Pareto(f64),
}

impl PeriodDist {
    fn sample(self, mean: f64, rng: &mut SimRng) -> f64 {
        match self {
            PeriodDist::Exponential => rng.exponential(mean),
            PeriodDist::Pareto(alpha) => rng.pareto(alpha, mean),
        }
    }
}

/// An on/off source: during ON it emits fixed-size packets at the burst
/// rate; OFF is silent. Period lengths are drawn from [`PeriodDist`].
///
/// The generator carries fractional "on-time budget" across period
/// boundaries so the long-run rate is exactly
/// `burst_rate × mean_on / (mean_on + mean_off)`.
#[derive(Clone, Debug)]
pub struct OnOff {
    burst_rate_bps: f64,
    mean_on_s: f64,
    mean_off_s: f64,
    dist: PeriodDist,
    pkt_bytes: u32,
    /// Seconds of the current ON period not yet consumed by emissions.
    remaining_on: f64,
    /// Whether the source still has to draw its first period (randomised
    /// initial phase: start OFF with probability mean_off/(mean_on+mean_off)).
    fresh: bool,
}

impl OnOff {
    /// Build an on/off source. Both period means must be positive: the
    /// exponential and Pareto samplers take no zero mean.
    pub fn new(
        burst_rate_bps: f64,
        mean_on_s: f64,
        mean_off_s: f64,
        dist: PeriodDist,
        pkt_bytes: u32,
    ) -> Self {
        assert!(burst_rate_bps > 0.0 && mean_on_s > 0.0 && mean_off_s > 0.0 && pkt_bytes > 0);
        OnOff {
            burst_rate_bps,
            mean_on_s,
            mean_off_s,
            dist,
            pkt_bytes,
            remaining_on: 0.0,
            fresh: true,
        }
    }

    /// Packet spacing while ON.
    fn spacing_s(&self) -> f64 {
        self.pkt_bytes as f64 * 8.0 / self.burst_rate_bps
    }
}

impl PacketProcess for OnOff {
    fn next_packet(&mut self, rng: &mut SimRng) -> (SimDuration, u32) {
        let spacing = self.spacing_s();
        let mut gap = 0.0;
        if self.fresh {
            // Random initial phase so simultaneous flow starts don't sync.
            self.fresh = false;
            let duty = self.mean_on_s / (self.mean_on_s + self.mean_off_s);
            if rng.chance(duty) {
                // Start mid-ON: residual ON time (memoryless approximation).
                self.remaining_on = self.dist.sample(self.mean_on_s, rng) * rng.uniform();
            } else {
                gap += self.dist.sample(self.mean_off_s, rng) * rng.uniform();
                self.remaining_on = self.dist.sample(self.mean_on_s, rng);
            }
        }
        let mut need = spacing;
        loop {
            if self.remaining_on >= need {
                self.remaining_on -= need;
                gap += need;
                return (SimDuration::from_secs_f64(gap), self.pkt_bytes);
            }
            // Exhaust the ON period, wait out an OFF period, keep the
            // residual need so long-run rate is exact.
            gap += self.remaining_on;
            need -= self.remaining_on;
            gap += self.dist.sample(self.mean_off_s, rng);
            self.remaining_on = self.dist.sample(self.mean_on_s, rng);
        }
    }

    fn avg_rate_bps(&self) -> f64 {
        self.burst_rate_bps * self.mean_on_s / (self.mean_on_s + self.mean_off_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured_rate(p: &mut dyn PacketProcess, seed: u64, horizon_s: f64) -> f64 {
        let mut rng = SimRng::new(seed);
        let mut t = 0.0;
        let mut bytes = 0u64;
        loop {
            let (gap, size) = p.next_packet(&mut rng);
            t += gap.as_secs_f64();
            if t > horizon_s {
                break;
            }
            bytes += size as u64;
        }
        bytes as f64 * 8.0 / horizon_s
    }

    #[test]
    fn exp_onoff_long_run_rate() {
        // EXP1: 256k burst, 500 ms on, 500 ms off -> 128k average.
        let mut s = OnOff::new(256_000.0, 0.5, 0.5, PeriodDist::Exponential, 125);
        let r = measured_rate(&mut s, 7, 5_000.0);
        assert!((r - 128_000.0).abs() / 128_000.0 < 0.03, "rate {r}");
        assert!((s.avg_rate_bps() - 128_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_off_period_is_rejected() {
        OnOff::new(128_000.0, 1.0, 0.0, PeriodDist::Exponential, 125);
    }

    #[test]
    fn exp4_long_periods_rate() {
        // EXP4: 256k burst, 5 s on, 5 s off -> 128k average.
        let mut s = OnOff::new(256_000.0, 5.0, 5.0, PeriodDist::Exponential, 125);
        let r = measured_rate(&mut s, 9, 20_000.0);
        assert!((r - 128_000.0).abs() / 128_000.0 < 0.05, "rate {r}");
    }

    #[test]
    fn pareto_onoff_rate_and_burstiness() {
        // POO1: 256k burst, 500 ms mean on/off, alpha 1.2.
        let mut s = OnOff::new(256_000.0, 0.5, 0.5, PeriodDist::Pareto(1.2), 125);
        let r = measured_rate(&mut s, 11, 50_000.0);
        // alpha=1.2 converges slowly; allow wide tolerance.
        assert!(
            (r - 128_000.0).abs() / 128_000.0 < 0.25,
            "rate {r} (heavy tails converge slowly)"
        );
    }

    #[test]
    fn onoff_emits_at_burst_spacing_within_bursts() {
        let mut s = OnOff::new(256_000.0, 0.5, 0.5, PeriodDist::Exponential, 125);
        let mut rng = SimRng::new(3);
        let spacing = 0.00390625;
        let mut at_spacing = 0;
        let mut total = 0;
        for _ in 0..10_000 {
            let (gap, _) = s.next_packet(&mut rng);
            total += 1;
            if (gap.as_secs_f64() - spacing).abs() < 1e-9 {
                at_spacing += 1;
            }
        }
        // Most gaps are within-burst: mean on 0.5 s / 3.9 ms ≈ 128 packets
        // per burst, so ≳ 98% of gaps equal the spacing.
        assert!(
            at_spacing as f64 / total as f64 > 0.95,
            "{at_spacing}/{total}"
        );
    }

    #[test]
    fn pareto_onoff_has_much_longer_bursts_than_exp() {
        // Count the longest run of consecutive spacing-sized gaps.
        fn longest_burst(dist: PeriodDist, seed: u64) -> u32 {
            let mut s = OnOff::new(256_000.0, 0.5, 0.5, dist, 125);
            let mut rng = SimRng::new(seed);
            let spacing = 0.00390625;
            let (mut run, mut best) = (0u32, 0u32);
            for _ in 0..200_000 {
                let (gap, _) = s.next_packet(&mut rng);
                if (gap.as_secs_f64() - spacing).abs() < 1e-9 {
                    run += 1;
                    best = best.max(run);
                } else {
                    run = 0;
                }
            }
            best
        }
        let exp = longest_burst(PeriodDist::Exponential, 5);
        let par = longest_burst(PeriodDist::Pareto(1.2), 5);
        assert!(par > exp * 3, "pareto {par} vs exp {exp}");
    }
}
